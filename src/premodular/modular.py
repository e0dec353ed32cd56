"""Premodular and modular data: twists, the unnormalised S matrix, and their checks.

The S matrix is produced from ``(N, d, theta)`` by the balancing identity

    S'(a, b) = sum_c N[dual a, b, c] * theta_c / (theta_a * theta_b) * d_c,

whose unit row is the dimension vector.  Data is *modular* when S' is
invertible; the normalised ``S = S'/sqrt(dim)`` and ``T = zeta * Diag(theta)``
then satisfy ``S^2 = (S T)^3 = C`` and ``T C = C T`` with ``C`` the charge
conjugation permutation, where ``zeta`` is a cube root of the normalised
Gauss sum phase.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .fusion import (
    DEFAULT_TOL,
    CheckResult,
    FusionData,
    FusionError,
    InconsistentDataError,
    SubcategorySelection,
    ValidationReport,
    _on_pairs,
    _readonly,
    _take,
    full_subcategory,
    global_dim,
    perron_frobenius_dims,
)

__all__ = [
    "PremodularityError",
    "Twist",
    "PremodularData",
    "GaussSums",
    "CenterReport",
    "ModularityReport",
    "MinimalityReport",
    "sprime_from_balancing",
    "premodular_from_twists",
    "verify_premodular",
    "is_modular",
    "verlinde_multiplicities",
    "muger_center",
    "centralizer",
    "check_minimal_extension",
]


class PremodularityError(ValueError):
    """Twist/S data does not define premodular data."""


@dataclass(frozen=True)
class Twist:
    """A unit-modulus twist, kept exact as a fraction of a full turn when possible.

    ``turns = p/q`` denotes ``exp(2*pi*i*p/q)``; ``approx`` always holds the
    complex value.  Products stay exact on the rational representation, and
    `_twist_powers` reduces framing weights ``theta**m`` on it, one row per
    framing and in integers, free of phase drift.
    """

    turns: Fraction | None
    approx: complex

    @classmethod
    def from_turns(cls, p, q=None) -> "Twist":
        t = Fraction(p, q)
        # reduce mod 1 on the integers; float(t) is the same num / den
        num, den = t.numerator % t.denominator, t.denominator
        if num != t.numerator:
            t = Fraction(num, den)
        return cls(turns=t, approx=cmath.exp(2j * cmath.pi * (num / den)))

    @classmethod
    def from_complex(cls, z, *, tol: float = DEFAULT_TOL) -> "Twist":
        z = complex(z)
        if not cmath.isfinite(z):
            raise PremodularityError(f"twist {z} is not finite")
        if abs(abs(z) - 1.0) > tol:
            raise PremodularityError(f"twist {z} is not unit modulus")
        return cls(turns=None, approx=z / abs(z))

    @classmethod
    def one(cls) -> "Twist":
        return cls.from_turns(0)

    @property
    def value(self) -> complex:
        return self.approx

    def conjugate(self) -> "Twist":
        if self.turns is not None:
            return Twist.from_turns(-self.turns)
        return Twist(turns=None, approx=self.approx.conjugate())

    def __mul__(self, other: "Twist") -> "Twist":
        if self.turns is not None and other.turns is not None:
            return Twist.from_turns(self.turns + other.turns)
        return Twist(turns=None, approx=self.approx * other.approx)

    def __complex__(self) -> complex:
        return self.approx

    def __str__(self) -> str:
        if self.turns is not None:
            return f"e^(2πi·{self.turns})"
        return f"{self.approx:.6g}"


def _as_twists(theta, fusion: FusionData) -> tuple[Twist, ...]:
    out = []
    for i, name in enumerate(fusion.names):
        t = theta[name] if isinstance(theta, dict) else theta[i]
        if not isinstance(t, Twist):
            try:
                t = Twist.from_complex(complex(t))
            except PremodularityError as e:
                raise PremodularityError(f"theta of {name!r}: {e}") from None
        out.append(t)
    return tuple(out)


@dataclass(frozen=True)
class GaussSums:
    """The two Gauss sums and the positive square root of the global dimension."""

    delta_plus: complex  # sum d^2 / theta
    delta_minus: complex  # sum d^2 * theta
    total: float  # D = sqrt(dim)
    dim: float


@dataclass(frozen=True, eq=False)
class PremodularData:
    """Fusion data together with dimensions, twists, and the S' matrix."""

    fusion: FusionData
    dims: np.ndarray
    theta: tuple[Twist, ...]
    sprime: np.ndarray

    def __post_init__(self):
        n = self.fusion.rank
        # copies, as FusionData makes of its tensor: the caller's arrays stay writable and unshared
        dims = np.array(self.dims, dtype=float, order="C")
        sp = np.array(self.sprime, dtype=complex, order="C")
        if dims.shape != (n,) or sp.shape != (n, n) or len(self.theta) != n:
            raise PremodularityError("field shapes do not match the label set")
        for field, a in (("dims", dims), ("sprime", sp)):
            if np.count_nonzero(np.isfinite(a)) < a.size:  # cheaper than .all() on small arrays
                raise PremodularityError(f"{field} must be finite")
        dims.setflags(write=False)
        sp.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "sprime", sp)
        object.__setattr__(self, "theta", tuple(self.theta))

    # -- shorthands ----------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.fusion.rank

    @property
    def names(self) -> tuple[str, ...]:
        return self.fusion.names

    @property
    def unit(self) -> int:
        return self.fusion.unit

    @cached_property
    def theta_values(self) -> np.ndarray:
        v = np.array([t.value for t in self.theta], dtype=complex)
        v.setflags(write=False)
        return v

    @cached_property
    def _balanced(self) -> np.ndarray:
        # S' by the balancing identity on this data, read-only (`premodular_from_twists` hands on its own)
        f = self.fusion
        return _readonly(_balanced_sprime(f._float_tensor, list(f.dual), self.theta_values, self.dims))

    @cached_property
    def _twist_table(self) -> tuple[tuple[int, ...], int, tuple[tuple[int, complex], ...]]:
        # rational twists as integer turns over one common denominator (0 for
        # complex twists), and the complex twists by index
        denom = math.lcm(*(t.turns.denominator for t in self.theta if t.turns is not None))
        nums = tuple(0 if t.turns is None else t.turns.numerator * (denom // t.turns.denominator)
                     for t in self.theta)
        approx = tuple((i, t.approx) for i, t in enumerate(self.theta) if t.turns is None)
        return nums, denom, approx

    @cached_property
    def _weight_rows(self) -> dict[tuple[int, int], np.ndarray]:
        # plumbing vertex weights theta^m d^(2-deg) by (m, deg), read-only rows
        return {}

    @cached_property
    def _leaf_parts(self) -> dict[tuple[int, int], np.ndarray | complex]:
        # rt_invariant's contraction: by (m, 1) a leaf's message s @ row sent to
        # its parent, by (m, 0) an isolated vertex's sum of its row (_contract_forest)
        return {}

    @cached_property
    def _pairings(self) -> dict:
        # condense.pairing_bracket results by (subcategory members, tol)
        return {}

    @cached_property
    def total_dim(self) -> float:
        return global_dim(self.fusion, self.dims)

    @cached_property
    def _gauss_sums(self) -> GaussSums:
        d2 = self.dims**2
        th = self.theta_values
        dim = self.total_dim
        return GaussSums(
            delta_plus=complex(np.sum(d2 / th)),
            delta_minus=complex(np.sum(d2 * th)),
            total=float(np.sqrt(dim)),
            dim=dim,
        )

    def gauss_sums(self) -> GaussSums:
        return self._gauss_sums

    @cached_property
    def _s(self) -> np.ndarray:
        # the unitary s = S'/D, read-only
        s = self.sprime / self._gauss_sums.total
        s.setflags(write=False)
        return s

    @cached_property
    def _svd(self) -> tuple[float, np.ndarray]:
        """One SVD of S': the smallest-to-largest singular value ratio (0 for a zero S'), and V^H."""
        _, sv, vh = np.linalg.svd(self.sprime)
        return (float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0), vh

    def sprime_invertible(self, *, tol: float = DEFAULT_TOL) -> bool:
        return self._svd[0] > tol

    @cached_property
    def _row_multiplicativity(self) -> tuple[float, tuple[int, ...]]:
        """The worst row-multiplicativity deviation of S' and the first ``(a, b, c)`` where it occurs."""
        dev = np.abs(_row_multiplicativity_dev(self.fusion._float_tensor, self.dims, self.sprime))
        i = int(dev.argmax())  # the first NaN, when there is one, as max() returns NaN
        return float(dev.flat[i]), np.unravel_index(i, dev.shape)

    # -- derived data ---------------------------------------------------------

    def conjugate(self) -> "PremodularData":
        """Complex-conjugate data: inverted twists, conjugated S'."""
        return PremodularData(
            fusion=self.fusion,
            dims=self.dims,
            theta=tuple(t.conjugate() for t in self.theta),
            sprime=self.sprime.conj(),
        )

    def restrict(self, members: Iterable | SubcategorySelection) -> "PremodularData":
        """Restriction to a full fusion subcategory (validates closure)."""
        return self._take(list(full_subcategory(self.fusion, members).members))

    def relabelled(self, perm: Sequence[int]) -> "PremodularData":
        """Apply a label permutation: new label ``i`` is old label ``perm[i]``."""
        idx = np.asarray(perm)
        if idx.dtype.kind not in "iu" or not np.array_equal(np.sort(idx), np.arange(self.rank)):
            raise FusionError(f"{idx.tolist()} is not a permutation of the {self.rank} labels")
        return self._take(idx.tolist())

    def _take(self, idx: list[int]) -> "PremodularData":
        return PremodularData(
            fusion=_take(self.fusion, idx),
            dims=self.dims[idx],
            theta=tuple(self.theta[i] for i in idx),
            sprime=self.sprime[np.ix_(idx, idx)],
        )

    def _on_pairs(self, other: "PremodularData", ia: np.ndarray, ib: np.ndarray) -> "PremodularData":
        """``self ⊠ other`` on the label pairs ``(ia[k], ib[k])``, as `fusion._on_pairs`."""
        return PremodularData(
            fusion=_on_pairs(self.fusion, other.fusion, ia, ib), dims=self.dims[ia] * other.dims[ib],
            theta=tuple(self.theta[x] * other.theta[y] for x, y in zip(ia.tolist(), ib.tolist())),
            sprime=self.sprime[np.ix_(ia, ia)] * other.sprime[np.ix_(ib, ib)],
        )


def _twist_powers(p: PremodularData, framings: Sequence[int]) -> np.ndarray:
    """``theta_a**m`` for every label ``a`` (columns) and framing ``m`` (rows).

    Rational turns are reduced exactly: in int64 while every product of a
    framing and a numerator, and the common denominator, stay below 2**62,
    and otherwise on Python ints, which do not overflow.  One exponential
    takes the whole block; a complex twist is raised to each framing directly.
    """
    nums, denom, approx = p._twist_table
    if max(map(abs, framings), default=0) * max(*nums, 1) < 2**62 and denom < 2**62:
        phase = np.array(framings, dtype=np.int64)[:, None] * np.array(nums) % denom
    else:
        phase = np.array([[(n * m) % denom for n in nums] for m in framings]).reshape(len(framings), p.rank)
    out = np.exp(2j * np.pi * (phase / denom))
    for i, z in approx:
        out[:, i] = [z**m for m in framings]
    return out


# -- S' construction ----------------------------------------------------------


def _balanced_sprime(t: np.ndarray, dual: list[int], th: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The balancing identity on a float multiplicity tensor ``t``."""
    return np.einsum("abc,c->ab", t.take(dual, 0), th * d) / (th[:, None] * th)


def _row_multiplicativity_dev(t: np.ndarray, d: np.ndarray, sp: np.ndarray) -> np.ndarray:
    """``S'(a,b) S'(a,c) / d_a - sum_e N[b,c,e] S'(a,e)``, indexed ``(a, b, c)``."""
    n = len(d)
    fused = (t.reshape(n * n, n) @ sp.T).reshape(n, n, n).transpose(2, 0, 1)
    # in place: two fewer complex n^3 temporaries, the same operations per entry
    dev = sp[:, :, None] * sp[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero dimension fails the check
        dev /= d[:, None, None]
    dev -= fused
    return dev


def sprime_from_balancing(
    f: FusionData, dims: np.ndarray, theta, *, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """S' matrix from ribbon data via the balancing identity.

    The read-only S' of `premodular_from_twists`, which rejects twists that
    are not realisable premodular data.
    """
    return premodular_from_twists(f, theta, dims=dims, tol=tol).sprime


def premodular_from_twists(
    f: FusionData,
    theta,
    *,
    dims: np.ndarray | None = None,
    sprime: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
) -> PremodularData:
    """Assemble premodular data, computing what was omitted.

    Omitted dimensions come from the Perron-Frobenius eigenvector; an omitted
    S' is computed by balancing.  An explicitly supplied S' is cross-validated
    against the balancing identity.  Row multiplicativity is checked on the
    S' the data adopts, and a violation beyond tolerance rejects the twists as
    not realisable premodular data.
    """
    theta = _as_twists(theta, f)
    if abs(theta[f.unit].value - 1.0) > tol:
        raise PremodularityError("unit twist must be 1")
    d = perron_frobenius_dims(f) if dims is None else np.asarray(dims, dtype=float)
    th = _readonly(np.array([t.value for t in theta], dtype=complex))
    balanced = _readonly(_balanced_sprime(f._float_tensor, list(f.dual), th, d))
    scale = max(1.0, float(np.abs(balanced).max()))
    sp = balanced
    if sprime is not None:
        sp = np.asarray(sprime, dtype=complex)
        dev = float(np.abs(sp - balanced).max())
        if not dev <= tol * scale:
            raise PremodularityError(
                f"supplied S' deviates from the balancing identity by {dev:.3g}"
            )
    p = PremodularData(fusion=f, dims=d, theta=theta, sprime=sp)
    # the data's cached slots take what was computed here
    object.__setattr__(p, "theta_values", th)
    object.__setattr__(p, "_balanced", balanced)
    resid = p._row_multiplicativity[0]
    if not resid <= tol * scale**2:  # NaN fails too
        raise PremodularityError(
            f"row multiplicativity fails (residual {resid:.3g}): "
            "twists are not realisable on this fusion ring"
        )
    return p


# -- verification --------------------------------------------------------------


def verify_premodular(p: PremodularData, *, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check every premodular-data invariant; all-pass accepts the data.

    Residuals are absolute, measured entrywise; witnesses point at the worst
    entry.  The Gauss-sum identities apply only to modular data and are
    reported as skipped when S' is singular.
    """
    row_resid, row_ix = p._row_multiplicativity
    d, th, sp = p.dims, p.theta_values, p.sprime
    u, dual = p.unit, list(p.fusion.dual)
    lim = tol * max(1.0, float(np.abs(sp).max()))
    g = p.gauss_sums()
    modular = p.sprime_invertible(tol=tol)

    # (name, deviation, its label axes); row multiplicativity enters evaluated:
    # its residual, as a scalar, and its worst entry row_ix
    entries = [
        ("dims:unit", d[u] - 1.0, 0),
        ("dims:dual", d[dual] - d, 1),
        ("dims:positive", np.minimum(d - 1.0, 0.0), 1),
        ("dims:multiplicative", d[:, None] * d - np.einsum("abc,c->ab", p.fusion._float_tensor, d), 2),
        ("twist:unit_modulus", np.abs(th) - 1.0, 1),
        ("twist:unit", th[u] - 1.0, 0),
        ("twist:dual", th[dual] - th, 1),
        ("sprime:symmetric", sp - sp.T, 2),
        ("sprime:unit_row", sp[u] - d, 1),
        ("sprime:conjugate_row", sp[dual] - sp.conj(), 2),
        ("sprime:row_multiplicative", row_resid, 0),
        ("sprime:balancing", sp - p._balanced, 2),
    ]
    if modular:
        entries.append(("gauss:product", g.delta_plus * g.delta_minus - g.dim, 0))
        entries.append(("gauss:modulus", abs(g.delta_plus) - g.total, 0))
    # one absolute value over all deviations (real ones as complex, the same
    # values) and one maximum per entry
    a = np.abs(np.concatenate([dev for _, dev, _ in entries], axis=None))
    n = p.rank
    ends = list(accumulate(n**k for _, _, k in entries))
    starts = [0, *ends[:-1]]
    checks = []
    for (name, _, k), r, lo, hi in zip(entries, np.maximum.reduceat(a, starts).tolist(), starts, ends):
        wit = None
        if r > lim:  # a NaN residual fails without a witness
            worst = np.unravel_index(int(a[lo:hi].argmax()), (n,) * k)
            wit = tuple(p.names[i] for i in (row_ix if name == "sprime:row_multiplicative" else worst))
        checks.append(CheckResult(name, r <= lim, wit, r))
    if not modular:
        checks.append(CheckResult("gauss:product", True, witness="skipped: S' singular"))
        checks.append(CheckResult("gauss:modulus", True, witness="skipped: S' singular"))
    return ValidationReport(tuple(checks))


@dataclass(frozen=True, eq=False)
class ModularityReport:
    """Invertibility decision for S' plus the normalised S, T relations."""

    modular: bool
    s: np.ndarray | None
    t: np.ndarray | None
    c: np.ndarray
    residual: float
    singular_ratio: float
    kernel: np.ndarray | None = None


def is_modular(p: PremodularData, *, tol: float = DEFAULT_TOL) -> ModularityReport:
    """Decide modularity and verify the S, T matrix relations.

    Non-modular input is a valid outcome: the report then carries a kernel
    witness (a null vector of S').  T's normalisation takes the principal
    cube root of the Gauss-sum phase.  The choice of root does not matter:
    for ``T = zeta * Diag(theta)``, ``(S T)^3`` carries ``zeta^3``, the same
    for all three roots, ``T C - C T`` and ``T T^dagger`` do not see the
    phase of ``zeta``, and ``S^2`` and ``S S^dagger`` do not involve it.
    """
    n = p.rank
    c = np.zeros((n, n))
    c[np.arange(n), p.fusion.dual] = 1.0

    ratio, vh = p._svd
    if ratio <= tol:
        kernel = vh[-1].conj()
        return ModularityReport(
            modular=False, s=None, t=None, c=c, residual=float("inf"),
            singular_ratio=ratio, kernel=kernel,
        )

    g = p.gauss_sums()
    s = p._s
    tau = (g.delta_plus / abs(g.delta_plus)) ** (1.0 / 3.0) * p.theta_values
    t = np.diag(tau)
    st = s @ t
    # T is diagonal: T C - C T and T T^dagger - 1 entrywise on tau, as the
    # matrix products' other terms are exact zeros
    resid = max(
        float(np.abs(s @ s - c).max()),
        float(np.abs(st @ st @ st - c).max()),
        float(np.abs(tau - tau[list(p.fusion.dual)]).max()),
        float(np.abs(s @ s.conj().T - np.eye(n)).max()),
        float(np.abs(tau * tau.conj() - 1.0).max()),
    )
    return ModularityReport(
        modular=resid <= tol * max(1.0, g.total),
        s=s, t=t, c=c, residual=resid, singular_ratio=ratio,
    )


def verlinde_multiplicities(s: np.ndarray, unit: int) -> np.ndarray:
    """Fusion multiplicities reconstructed from a unitary S matrix."""
    return np.einsum("ax,bx,cx,x->abc", s, s, s.conj(), 1.0 / s[unit])


# -- Muger center, centralizers, minimality -----------------------------------


@dataclass(frozen=True, eq=False)
class CenterReport:
    """Degenerate (transparent) labels together with evenness and pointedness."""

    degenerate: tuple[int, ...]
    is_even: bool
    is_pointed: bool
    group_table: np.ndarray | None  # indices into `degenerate`, when pointed

    @property
    def trivial(self) -> bool:
        return len(self.degenerate) == 1


def _degenerate_labels(p: PremodularData, tol: float, cols=slice(None), rows=slice(None)) -> tuple[int, ...]:
    """Labels ``a`` in ``rows`` with ``S'(a, b) = d_a d_b`` for every ``b`` in ``cols`` (all by
    default), cut at ``tol * max(1, sum of d_a^2 over the rows)``."""
    d = p.dims[rows]
    dev = np.abs(p.sprime[rows][:, cols] - np.outer(d, p.dims[cols])).max(axis=1)
    cut = tol * max(1.0, float(np.sum(d**2)))
    return tuple(int(a) for a in np.arange(len(p.dims))[rows][dev <= cut])


def _center_report(p: PremodularData, deg: tuple[int, ...], tol: float) -> CenterReport:
    """Evenness and pointedness of the transparent labels ``deg``, and their group table when pointed."""
    th = p.theta_values
    is_even = all(abs(th[a] - 1.0) <= tol for a in deg)
    is_pointed = all(abs(p.dims[a] - 1.0) <= tol for a in deg)
    table = None
    if is_pointed:
        # a ⊗ b must be a single label of multiplicity 1 that is itself degenerate
        idx = list(deg)
        prods = p.fusion.tensor[idx][:, idx]
        inside = prods[..., idx]
        group_like = ((prods != 0).sum(-1) == 1) & (inside.sum(-1) == 1)
        if not group_like.all():
            a, b = (deg[i] for i in np.argwhere(~group_like)[0])
            raise InconsistentDataError(
                "pointed degenerate labels do not fuse like a group at "
                f"({p.names[a]}, {p.names[b]})"
            )
        table = inside @ np.arange(len(deg))
    return CenterReport(degenerate=deg, is_even=is_even, is_pointed=is_pointed, group_table=table)


def muger_center(p: PremodularData, *, tol: float = DEFAULT_TOL) -> CenterReport:
    """Labels transparent against the whole category, via ``S'(a, b) = d_a d_b``."""
    return _center_report(p, _degenerate_labels(p, tol), tol)


def _require_transparent_unit(p: PremodularData, center: CenterReport):
    if p.unit not in center.degenerate:
        raise InconsistentDataError(
            f"the unit {p.names[p.unit]!r} is not transparent (its dimension is "
            f"{p.dims[p.unit]:.6g}): S' and the dimensions are inconsistent"
        )


def centralizer(
    p: PremodularData,
    sub: SubcategorySelection | Iterable,
    *,
    tol: float = DEFAULT_TOL,
) -> tuple[int, ...]:
    """Labels transparent against every member of a subcategory.

    On modular input the dimension law ``dim(centralizer) = dim/dim(sub)`` is
    asserted; failure means the numerical data is inconsistent.
    """
    cols = list(full_subcategory(p.fusion, sub).members)
    result = _degenerate_labels(p, tol, cols)
    if p.sprime_invertible(tol=tol):
        dim_res = float(np.sum(p.dims[list(result)] ** 2))
        dim_sub = float(np.sum(p.dims[cols] ** 2))
        expected = p.total_dim / dim_sub
        if abs(dim_res - expected) > 1e3 * tol * max(1.0, p.total_dim):
            raise InconsistentDataError(
                f"centralizer dimension {dim_res:.12g} deviates from "
                f"dim/dim(sub) = {expected:.12g}"
            )
    return result


@dataclass(frozen=True)
class MinimalityReport:
    """Comparison of a subcategory's transparent part with its centralizer."""

    centralizer_labels: tuple[int, ...]
    degenerate_labels: tuple[int, ...]  # parent indices of the sub's transparent part
    minimal: bool
    dim_identity_ok: bool
    dim_total: float
    dim_sub: float
    dim_center: float
    center_even: bool
    center_pointed: bool

    @property
    def passed(self) -> bool:
        return self.minimal and self.dim_identity_ok


def check_minimal_extension(
    hat: PremodularData,
    delta: SubcategorySelection | Iterable,
    *,
    tol: float = DEFAULT_TOL,
) -> MinimalityReport:
    """Check minimality of a non-degenerate extension.

    The extension is minimal when the centralizer of the subcategory equals
    its own transparent part; minimality forces the dimension identity
    ``dim(hat) = dim(sub) * dim(transparent part)``.  Evenness and
    pointedness of the transparent part are reported alongside since the
    condensation pipeline requires them.
    """
    delta = full_subcategory(hat.fusion, delta)
    members = list(delta.members)
    # the subcategory's own Muger center, read on the extension's labels
    sub_center = _center_report(hat, _degenerate_labels(hat, tol, members, members), tol)
    _require_transparent_unit(hat, sub_center)
    deg = sub_center.degenerate
    cent = centralizer(hat, delta, tol=tol)
    dim_total = hat.total_dim
    dim_sub = float(np.sum(hat.dims[members] ** 2))
    dim_center = float(np.sum(hat.dims[list(deg)] ** 2))
    minimal = set(cent) == set(deg)
    dim_ok = abs(dim_total - dim_sub * dim_center) <= 1e3 * tol * max(1.0, dim_total)
    return MinimalityReport(
        centralizer_labels=cent,
        degenerate_labels=deg,
        minimal=minimal,
        dim_identity_ok=dim_ok,
        dim_total=dim_total,
        dim_sub=dim_sub,
        dim_center=dim_center,
        center_even=sub_center.is_even,
        center_pointed=sub_center.is_pointed,
    )
