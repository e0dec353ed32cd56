"""Modularization by condensing the even pointed transparent subcategory.

The transparent labels of premodular data, when even and pointed, form a
finite abelian group ``G`` acting on the label set by fusion.  Condensation
keeps one label per free orbit and splits each orbit with a nontrivial
stabilizer into ``|stab|`` sheets of equal dimension.  S' entries descend on
free orbits and split equally between a free label and the sheets of a fixed
one.  Entries between sheets are not determined by ``(N, d, theta, S')``
alone; they are given by the fixed-point resolution (Fuchs-Schellekens-
Schweigert, hep-th/9601078; Muger, Adv. Math. 150 (2000)), implemented for a
single fixed orbit whose stabilizer has order 2.  Other fixed-orbit shapes
are reported as unresolved, with the reason.  Every result is rebuilt from
its S' (fusion via the Verlinde formula) and must pass the premodular and
modularity gates.

``double_data`` condenses R, the centralizer of the diagonal transparent group
in an extension times its conjugate, built on its own labels: the support of
``pairing_bracket``, the one precondition check of both routes to the double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .fusion import (
    DEFAULT_TOL,
    FusionData,
    InconsistentDataError,
    SubcategorySelection,
    _closed_selection,
    _member_indices,
)
from .modular import (
    MinimalityReport,
    PremodularData,
    _center_faults,
    _require_transparent_unit,
    check_minimal_extension,
    is_modular,
    muger_center,
    verify_premodular,
    verlinde_multiplicities,
)

__all__ = [
    "ModularizationError",
    "ResolutionError",
    "MinimalityError",
    "Orbit",
    "OrbitDecomposition",
    "SheetLabel",
    "CondensedData",
    "PairingBracket",
    "pairing_bracket",
    "degenerate_group",
    "orbit_decomposition",
    "condense",
    "double_data",
]

class ModularizationError(ValueError):
    """The transparent subcategory is not condensable (not even or not pointed)."""


class MinimalityError(ValueError):
    """A pipeline precondition on the extension failed."""


class ResolutionError(RuntimeError):
    """No usable sheet resolution is available."""


@dataclass(frozen=True)
class Orbit:
    representative: int
    members: tuple[int, ...]
    stabilizer: tuple[int, ...]

    @property
    def sheet_count(self) -> int:
        return len(self.stabilizer)


@dataclass(frozen=True, eq=False)
class OrbitDecomposition:
    group_labels: tuple[int, ...]
    group_table: np.ndarray
    orbits: tuple[Orbit, ...]

    @property
    def group_order(self) -> int:
        return len(self.group_labels)


@dataclass(frozen=True)
class SheetLabel:
    """A condensed label: its orbit representative and its name, ``x#i`` for sheet ``i``."""

    source: int
    name: str


@dataclass(frozen=True, eq=False)
class CondensedData:
    """Result of modularization: the verified sheet resolution and, when there
    is none, the reason (the fixed-orbit shape or the gate that rejected the
    candidate).  A modularization is unique up to equivalence (Muger, Adv.
    Math. 150 (2000)), so ``solutions`` holds one result or none."""

    source: PremodularData
    decomposition: OrbitDecomposition
    labels: tuple[SheetLabel, ...]
    solutions: tuple[PremodularData, ...]
    best_residual: float
    reason: str = ""

    @property
    def group_order(self) -> int:
        return self.decomposition.group_order

    @property
    def n_solutions(self) -> int:
        return len(self.solutions)

    @property
    def status(self) -> str:
        return "unique" if self.solutions else "unresolved"

    @property
    def data(self) -> PremodularData:
        """The resolved data; raises ``ResolutionError`` when unresolved."""
        if not self.solutions:
            raise ResolutionError(
                f"resolution is unresolved (best residual {self.best_residual:.3g})"
                + (f": {self.reason}" if self.reason else "")
            )
        return self.solutions[0]

    def orbit_map(self) -> dict[str, object]:
        """Source label name -> condensed name (or sheet name list for fixed orbits)."""
        out: dict[str, object] = {}
        names = self.source.names
        by_rep: dict[int, list[str]] = {}
        for lab in self.labels:
            by_rep.setdefault(lab.source, []).append(lab.name)
        for orb in self.decomposition.orbits:
            target = by_rep[orb.representative]
            for m in orb.members:
                out[names[m]] = target[0] if len(target) == 1 else list(target)
        return out


def degenerate_group(p: PremodularData, *, tol: float = DEFAULT_TOL):
    """Group structure on the transparent labels; rejects non-even or non-pointed centers."""
    center = muger_center(p, tol=tol)
    _require_transparent_unit(p, center)
    if not center.is_even:
        raise ModularizationError(
            f"transparent subcategory is not even ({_center_faults(p, center.degenerate, tol)[0]}); "
            "modularization is undefined"
        )
    if not center.is_pointed:
        raise ModularizationError(
            f"transparent subcategory is not pointed ({_center_faults(p, center.degenerate, tol)[0]})"
        )
    return center.degenerate, center.group_table


def orbit_decomposition(p: PremodularData, *, tol: float = DEFAULT_TOL) -> OrbitDecomposition:
    """Orbits of the label set under fusion with the transparent group.

    Asserted at runtime: orbits partition the labels with
    ``|orbit| * |stabilizer| = |G|``, twists are constant on orbits, and S'
    rows agree across each orbit: ``S'(g x, b) = S'(x, b)`` for every label
    ``b``, since each ``g`` in the group is transparent.
    """
    group, table = degenerate_group(p, tol=tol)
    # row x of tensor[g] is the product g x: a permutation row has one nonzero entry, 1.
    # Rows that each sum to 1 have a nonzero entry each, and as many nonzero entries
    # as rows leave one to each row
    rows = p.fusion.tensor.take(group, 0)
    if np.count_nonzero(rows) != len(group) * p.rank or not (rows.sum(-1) == 1).all():
        permutes = ((rows != 0).sum(-1) == 1) & (rows.sum(-1) == 1)
        g = group[int(permutes.all(1).argmin())]
        raise InconsistentDataError(
            f"invertible label {p.names[g]} does not permute the label set"
        )

    seen: set[int] = set()
    orbits: list[Orbit] = []
    for x, targets in enumerate(rows.argmax(-1).T.tolist()):
        if x in seen:
            continue
        members = sorted(set(targets))
        stab = tuple(g for g, y in zip(group, targets) if y == x)
        if len(members) * len(stab) != len(group):
            raise InconsistentDataError(
                f"orbit of {p.names[x]} has size {len(members)} with stabilizer "
                f"{len(stab)} in a group of order {len(group)}"
            )
        seen.update(members)
        orbits.append(Orbit(representative=members[0], members=tuple(members), stabilizer=stab))

    # every other member against its representative, in orbit order; the first failure is reported
    pairs = [(m, orb.representative) for orb in orbits for m in orb.members[1:]]
    if pairs:
        members, reps = zip(*pairs)
        th, sp = p.theta_values, p.sprime
        twist_off = np.abs(th.take(members) - th.take(reps)) > tol
        dev = np.abs(sp.take(members, 0) - sp.take(reps, 0)).max(1)
        bad = twist_off | (dev > tol * max(1.0, p.total_dim))
        if bad.any():
            i = int(bad.argmax())
            if twist_off[i]:
                raise InconsistentDataError(f"twist not constant on the orbit of {p.names[reps[i]]}")
            raise InconsistentDataError(
                f"S' rows differ across the orbit of {p.names[reps[i]]} (deviation {dev[i]:.3g})"
            )
    return OrbitDecomposition(group_labels=group, group_table=table, orbits=tuple(orbits))


# -- sheet resolution ----------------------------------------------------------


def _finalize_candidate(
    sprime_new: np.ndarray,
    d_new: np.ndarray,
    dim: float,
    theta_new: tuple,
    th_new: np.ndarray,
    names_new: tuple[str, ...],
    unit_new: int,
    accept_tol: float,
) -> tuple[PremodularData | None, float, str]:
    """Reconstruct fusion data via Verlinde and run the full verification gate.

    ``dim`` is the sum of the squared dimensions ``d_new`` and ``th_new`` the
    values of the twists ``theta_new``.  Returns the verified data, its worst
    residual and ``""``, or ``(None, residual, gate)`` naming the gate that
    rejected the candidate: Verlinde integrality, positivity, the dual
    pairing, fusion assembly, the premodular checks or modularity.
    """
    s = sprime_new / math.sqrt(dim)
    nver = verlinde_multiplicities(s, unit_new)
    rounded = np.round(nver.real)
    int_err = float(np.abs(nver - rounded).max())
    if int_err > 1e-6:
        return None, int_err, "Verlinde integrality"
    n_int = rounded.astype(int)
    if n_int.min() < 0:
        return None, float(n_int.min()), "positivity"
    pairing = n_int[:, :, unit_new]
    if not ((pairing.sum(axis=0) == 1).all() and (pairing.sum(axis=1) == 1).all()):
        return None, 1.0, "dual pairing"
    dual_new = tuple(pairing.argmax(1).tolist())
    try:
        fus = FusionData(names=names_new, unit=unit_new, dual=dual_new, tensor=n_int)
        cand = PremodularData(fusion=fus, dims=d_new, theta=theta_new, sprime=sprime_new)
    except ValueError as exc:
        return None, 1.0, f"fusion assembly ({exc})"
    # the cached slots take what was computed here, the values the data would compute
    for obj, name, value in ((fus, "_float_tensor", n_int.astype(float)), (cand, "_s", s),
                             (cand, "theta_values", th_new)):
        value.setflags(write=False)
        object.__setattr__(obj, name, value)
    object.__setattr__(cand, "total_dim", dim)
    report = verify_premodular(cand, tol=accept_tol)
    resid = max((c.residual for c in report.checks), default=0.0)
    if not report.passed:
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        return None, resid, f"premodular checks ({failed})"
    mod = is_modular(cand, tol=accept_tol)
    if not mod.modular:
        return None, max(resid, mod.residual), "modularity"
    return cand, max(resid, mod.residual), ""


def _fixed_point_block(p: PremodularData, f: int, dim_new: float) -> np.ndarray:
    """S' block between the two sheets of a fixed orbit with stabilizer Z_2.

    The block is ``(S'_ff * ones + x * eps eps^T) / 4``, where ``eps = (1, -1)``
    is the stabilizer's nontrivial character: the sum rule fixes the ``S'_ff``
    part, unitarity fixes ``|x|^2 = 4 dim_new``, and the fixed-point relation
    ``(S^J T^J)^3 = (S^J)^2`` with ``T^J = zeta theta_f``, ``zeta^3 = delta_+ / |delta_+|``
    fixes the phase of ``x`` (Fuchs-Schellekens-Schweigert, hep-th/9601078).
    """
    delta = p.gauss_sums().delta_plus
    x = 2.0 * np.sqrt(dim_new) * np.conj(p.theta_values[f]) ** 3 * abs(delta) / delta
    s_ff = p.sprime[f, f]
    return np.array([[s_ff + x, s_ff - x], [s_ff - x, s_ff + x]]) / 4


def condense(p: PremodularData, *, tol: float = DEFAULT_TOL) -> CondensedData:
    """Condense premodular data by its even pointed transparent group.

    Free orbits keep the representative's dimension and twist; fixed orbits
    split into ``|stab|`` sheets of dimension ``d/|stab|``.  The result is
    rebuilt from the resolved S' (fusion via the Verlinde formula) and must
    pass the premodular and modularity gates; the global dimension drops by
    the group order.  Sheets are resolved for at most one fixed orbit, whose
    stabilizer has order 2; any other shape is ``unresolved``.
    """
    dec = orbit_decomposition(p, tol=tol)
    g_order = dec.group_order

    if g_order == 1:
        labels = tuple(SheetLabel(o.representative, p.names[o.representative]) for o in dec.orbits)
        return CondensedData(source=p, decomposition=dec, labels=labels, solutions=(p,), best_residual=0.0)

    labels: list[SheetLabel] = []
    stab: list[int] = []  # the sheet count of each label's orbit
    for orb in dec.orbits:
        s = orb.sheet_count
        nm = p.names[orb.representative]
        if s == 1:
            labels.append(SheetLabel(orb.representative, nm))
        else:
            labels.extend(SheetLabel(orb.representative, f"{nm}#{i + 1}") for i in range(s))
        stab += [s] * s
    labels = tuple(labels)
    names_new = tuple(lab.name for lab in labels)
    src = [lab.source for lab in labels]
    d_new = p.dims.take(src) / stab
    theta_new = tuple(p.theta[i] for i in src)
    unit_new = src.index(p.unit)

    dim_new = float((d_new * d_new).sum())
    if abs(dim_new * g_order - p.total_dim) > 1e-8 * max(1.0, p.total_dim):
        raise InconsistentDataError(
            f"condensed dimension {dim_new:.12g} times group order {g_order} "
            f"deviates from {p.total_dim:.12g}"
        )

    def unresolved(residual: float, reason: str) -> CondensedData:
        return CondensedData(
            source=p, decomposition=dec, labels=labels, solutions=(),
            best_residual=residual, reason=reason,
        )

    fixed = [o for o in dec.orbits if o.sheet_count > 1]
    if len(fixed) > 1 or (fixed and fixed[0].sheet_count != 2):
        orders = ", ".join(str(o.sheet_count) for o in fixed)
        return unresolved(
            float("inf"),
            f"fixed orbits: {len(fixed)}, stabilizer orders: {orders}; sheets are "
            "resolved only for a single fixed orbit with stabilizer order 2",
        )

    sheets = np.array(stab)
    sprime_new = p.sprime.take(src, 0).take(src, 1) / np.maximum(sheets[:, None], sheets)
    # mirror the upper triangle: a balanced S' is symmetric only up to rounding
    pos = np.arange(len(src))
    sprime_new = np.where(pos[:, None] > pos, sprime_new.T, sprime_new)
    if fixed:
        f = fixed[0].representative
        i = src.index(f)  # the orbit's sheets are consecutive labels
        sprime_new[i:i + 2, i:i + 2] = _fixed_point_block(p, f, dim_new)

    cand, resid, gate = _finalize_candidate(
        sprime_new, d_new, dim_new, theta_new, p.theta_values.take(src), names_new, unit_new, max(tol, 1e-8)
    )
    if cand is None:
        return unresolved(resid, f"candidate rejected by the {gate} gate")
    return CondensedData(source=p, decomposition=dec, labels=labels, solutions=(cand,), best_residual=resid)


@dataclass(frozen=True, eq=False)
class PairingBracket:
    """Dimension-weighted pairing of extension labels through a subcategory."""

    table: np.ndarray  # real, indexed by label pairs of the extension
    support: np.ndarray  # boolean, True where some fusion channel lies in the subcategory
    report: MinimalityReport

    @property
    def dim_sub(self) -> float:
        return self.report.dim_sub


def pairing_bracket(
    hat: PremodularData,
    delta: SubcategorySelection | Iterable,
    *,
    tol: float = DEFAULT_TOL,
) -> PairingBracket:
    """The pairing table of a minimal extension, with its invariants asserted.

    ``[lambda, mu] = (1/dim_hat) * sum_{nu in sub} N[lambda, dual mu, nu] d(nu)``
    (Muger, Adv. Math. 150 (2000)) is symmetric and non-negative; for a minimal
    extension it is ``d(lambda) d(mu) / dim_hat`` on the support, the pairs whose
    ``lambda ⊗ dual(mu)`` meets the subcategory, and zero off it.  A failed
    precondition raises ``MinimalityError`` naming it, a singular S' before
    minimality, after the errors of the minimality report itself.

    The result depends on ``hat``, the subcategory and ``tol`` alone, so it is
    kept on ``hat`` and its arrays are read-only; a failure is not kept, and
    raises again on the next call.
    """
    members = _member_indices(hat.fusion, delta)
    pb = hat._pairings.get((members, tol))
    if pb is None:
        if not (isinstance(delta, SubcategorySelection) and delta.parent is hat.fusion):
            delta = _closed_selection(hat.fusion, members)
        pb = hat._pairings[members, tol] = _pairing_bracket(hat, delta, tol)
    return pb


def _pairing_bracket(hat: PremodularData, delta: SubcategorySelection, tol: float) -> PairingBracket:
    report = check_minimal_extension(hat, delta, tol=tol)
    if not hat.sprime_invertible(tol=tol):
        raise MinimalityError(
            "extension is degenerate: S' is singular "
            f"(smallest-to-largest singular value ratio {hat._svd[0]:.3g})"
        )
    if not report.minimal:
        raise MinimalityError(
            "extension is not minimal: centralizer "
            f"{[hat.names[i] for i in report.centralizer_labels]} differs from the "
            f"transparent part {[hat.names[i] for i in report.degenerate_labels]}"
        )
    if not report.dim_identity_ok:
        raise MinimalityError(
            f"extension is not minimal: dimension {report.dim_total:.12g} differs from "
            f"dim(sub) * dim(transparent part) = {report.dim_sub:.12g} * {report.dim_center:.12g}"
        )
    members = list(delta.members)
    weights = np.zeros(hat.rank)
    weights[members] = hat.dims[members]
    t = hat.fusion.tensor[:, list(hat.fusion.dual)]
    table = np.einsum("abc,c->ab", t.astype(float), weights) / hat.total_dim
    support = t[..., members].sum(-1) > 0

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
    table.setflags(write=False)
    support.setflags(write=False)
    return PairingBracket(table=table, support=support, report=report)


def double_data(
    hat: PremodularData,
    delta: SubcategorySelection | Iterable,
    *,
    tol: float = DEFAULT_TOL,
) -> CondensedData:
    """Quantum-double data of a subcategory inside a minimal modular extension.

    Condenses R, the centralizer of the diagonal transparent group ``G`` in ``hat``
    times its conjugate: the support of ``pairing_bracket``, which checks minimality
    (Muger, Adv. Math. 150 (2000)).  ``dim R = dim(hat)^2 / |G|``, ``dim(double) = dim(sub)^2``.
    """
    pb = pairing_bracket(hat, delta, tol=tol)
    if not (pb.report.center_even and pb.report.center_pointed):
        faults = _center_faults(hat, pb.report.degenerate_labels, tol)
        raise MinimalityError("transparent part of the subcategory must be even and pointed "
                              f"for the double ({'; '.join(faults)})")

    ia, ib = np.nonzero(pb.support)
    restricted = hat._on_pairs(hat.conjugate(), ia, ib)
    expected = hat.total_dim**2 / len(pb.report.degenerate_labels)
    if abs(restricted.total_dim - expected) > 1e3 * tol * max(1.0, hat.total_dim**2):
        raise InconsistentDataError(
            f"centralizer dimension {restricted.total_dim:.12g} deviates from dim/dim(sub) = {expected:.12g}"
        )
    cond = condense(restricted, tol=tol)
    if {(ia[g], ib[g]) for g in cond.decomposition.group_labels} != {(g, g) for g in pb.report.degenerate_labels}:
        raise InconsistentDataError(
            "transparent part of the restricted product does not match the embedded group"
        )
    dim_sub = pb.dim_sub
    if cond.status == "unique" and abs(cond.data.total_dim - dim_sub**2) > 1e-8 * max(1.0, dim_sub**2):
        raise InconsistentDataError(
            f"double dimension {cond.data.total_dim:.12g} deviates from {dim_sub**2:.12g}"
        )
    return cond
