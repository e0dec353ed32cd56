"""The factorized Reshetikhin-Turaev invariant of a quantum double.

For a minimal non-degenerate extension, the double's invariant can be
evaluated from the extension's data alone:

    tau = (1/dim_sub) * sum_{lambda, mu} prod_i [lambda_i, mu_i] * F(g; lambda) * conj(F(g; mu)),

where the pairing ``[lambda, mu] = (1/dim_hat) * sum_{nu in sub} N[lambda, dual mu, nu] d(nu)``
vanishes unless every fusion channel of ``lambda ⊗ dual(mu)`` lies in the
subcategory.  The double sum is evaluated as one contraction over label
pairs, pruned to the support of ``condense.pairing_bracket``, the check
that ``double_data`` starts from too.  Its edges carry ``n ⊗ conj(n)``, for
``n(a, b) = s(a, b) / (d_a d_b)`` and the unitary ``s = S'/D`` a ``1/dim_hat``
each, and each tree one more: the pairings' ``dim_hat^(-k)`` on a tree of
``k`` vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .condense import PairingBracket, pairing_bracket
from .fusion import DEFAULT_TOL, SubcategorySelection
from .modular import PremodularData, _overflow_free_size
from .plumbing import (
    DEFAULT_TERM_CAP,
    InvariantValue,
    PlumbingGraph,
    _check_term_cap,
    _contract_forest,
    _vertex_weights,
    rt_invariant,
)

__all__ = [
    "PairingBracket",
    "pairing_bracket",
    "tau_double",
    "FactorizationCheck",
    "factorization_check",
]


def tau_double(
    hat: PremodularData,
    delta: SubcategorySelection | Iterable,
    g: PlumbingGraph,
    *,
    term_cap: float = DEFAULT_TERM_CAP,
    tol: float = DEFAULT_TOL,
) -> InvariantValue:
    """Invariant of the quantum double of the subcategory, from extension data.

    Evaluated as a forest contraction over label pairs ``(lambda, mu)``
    restricted to the pairing's support, with per-vertex weight
    ``F(lambda) * conj(F(mu))`` (``F`` the vertex's row of the bracket's
    weight block ``theta^m d^2``, so that
    ``[lambda, mu] = d_lambda d_mu / dim_hat`` on the support is folded in),
    per-edge weight ``n(lambda, lambda') * conj(n(mu, mu'))``, ``n = s/(d d)``,
    and ``1/dim_hat`` per tree; the sum is divided by ``dim_sub``.
    """
    _check_term_cap(hat.rank, 2 * g.n, term_cap)
    pb = pairing_bracket(hat, delta, tol=tol)

    ia, ib = np.nonzero(pb.support)
    bound = hat._contraction_bound
    edge = None
    if g.edges:  # then n >= 2, and the term cap's rank^(2n) >= |pairs|^2 bounds this matrix
        s = bound.rt_edge
        edge = s[ia[:, None], ia] * s[ib[:, None], ib].conj()

    w = np.reshape(_vertex_weights(hat, [m for _, m in g.vertices]), (g.n, hat.rank))
    # a pair's weight and edge entries are products of two: W^4 and E^2 bound them
    limit = _overflow_free_size(len(ia), bound.e**2, 2 * bound.log_w)
    value = _contract_forest(g, w[:, ia] * w[:, ib].conj(), edge, 1 / hat.total_dim, limit) / pb.dim_sub
    return InvariantValue(value, tol)


@dataclass(frozen=True)
class FactorizationCheck:
    """Double invariant against the squared modulus of the extension's invariant."""

    passed: bool
    double_value: complex
    squared_value: complex


def factorization_check(
    hat: PremodularData,
    g: PlumbingGraph,
    *,
    term_cap: float = DEFAULT_TERM_CAP,
    tol: float = 1e-8,
) -> FactorizationCheck:
    """For modular data and the whole category as subcategory, the double's
    invariant factors as ``tau * conj(tau)``."""
    tau = rt_invariant(hat, g, term_cap=term_cap, tol=tol).value
    lhs = tau_double(hat, range(hat.rank), g, term_cap=term_cap, tol=tol).value
    rhs = tau * tau.conjugate()
    scale = max(1.0, abs(lhs), abs(rhs))
    return FactorizationCheck(passed=abs(lhs - rhs) <= tol * scale, double_value=lhs, squared_value=rhs)
