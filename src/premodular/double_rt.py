"""The factorized Reshetikhin-Turaev invariant of a quantum double.

For a minimal non-degenerate extension, the double's invariant can be
evaluated from the extension's data alone:

    tau = (1/dim_sub) * sum_{lambda, mu} prod_i [lambda_i, mu_i] * F(g; lambda) * conj(F(g; mu)),

where the pairing ``[lambda, mu] = (1/dim_hat) * sum_{nu in sub} N[lambda, dual mu, nu] d(nu)``
vanishes unless every fusion channel of ``lambda ⊗ dual(mu)`` lies in the
subcategory.  The double sum is evaluated as one contraction over label
pairs, pruned to the pairing's support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .condense import _pairing_support, _require_minimal
from .fusion import DEFAULT_TOL, InconsistentDataError, SubcategorySelection, full_subcategory
from .modular import PremodularData
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


@dataclass(frozen=True, eq=False)
class PairingBracket:
    """Dimension-weighted pairing of extension labels through a subcategory."""

    table: np.ndarray  # real, indexed by label pairs of the extension
    support: np.ndarray  # boolean, True where some fusion channel lies in the subcategory
    dim_sub: float


def pairing_bracket(
    hat: PremodularData,
    delta: SubcategorySelection | Iterable,
    *,
    tol: float = DEFAULT_TOL,
) -> PairingBracket:
    """The pairing table, with its invariants asserted.

    The table is symmetric and non-negative; for a minimal extension each
    entry is ``d(lambda) d(mu) / dim_hat`` on full support and zero off
    support (all-or-nothing by the weighted fusion-support identity).
    """
    delta = full_subcategory(hat.fusion, delta)
    report = _require_minimal(hat, delta, tol)
    n = hat.rank
    dual = list(hat.fusion.dual)
    members = list(delta.members)
    weights = np.zeros(n)
    weights[members] = hat.dims[members]
    table = np.einsum("abc,c->ab", hat.fusion.tensor[:, dual, :].astype(float), weights)
    support = _pairing_support(hat, delta)
    table /= hat.total_dim

    dev_sym = float(np.abs(table - table.T).max())
    if dev_sym > tol:
        raise InconsistentDataError(f"pairing table is not symmetric (deviation {dev_sym:.3g})")
    if float(table.min()) < -tol:
        raise InconsistentDataError("pairing table has a negative entry")
    full = np.outer(hat.dims, hat.dims) / hat.total_dim
    dev = float(np.abs(np.where(support, table - full, table)).max())
    if dev > tol * max(1.0, float(full.max())):
        raise InconsistentDataError(
            f"pairing table violates the all-or-nothing support identity (deviation {dev:.3g})"
        )
    return PairingBracket(table=table, support=support, dim_sub=report.dim_sub)


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
    ``F(lambda) * conj(F(mu)) / dim_hat`` (``F`` the vertex's row of the
    bracket's weight block ``theta^m d^(2-deg)``, so that
    ``[lambda, mu] = d_lambda d_mu / dim_hat`` on the support is folded in)
    and per-edge weight ``S'(lambda, lambda') * conj(S'(mu, mu'))``.
    """
    _check_term_cap(hat.rank, 2 * g.n, term_cap)
    pb = pairing_bracket(hat, delta, tol=tol)

    ia, ib = np.nonzero(pb.support)
    edge = hat.sprime[np.ix_(ia, ia)] * hat.sprime.conj()[np.ix_(ib, ib)]

    w = _vertex_weights(hat, g)
    weights = dict(zip(g.ids, w[:, ia] * w[:, ib].conj() / hat.total_dim))
    value = _contract_forest(g, weights, edge) / pb.dim_sub
    return InvariantValue(value=value, tolerance=tol)


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
