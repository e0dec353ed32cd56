"""Modularization by condensing the even pointed transparent subcategory.

The transparent labels of premodular data, when even and pointed, form a
finite abelian group ``G`` acting on the label set by fusion.  Condensation
keeps one label per free orbit and splits each orbit with a nontrivial
stabilizer into ``|stab|`` sheets of equal dimension.  S' entries descend on
free orbits and split equally between a free label and the sheets of a fixed
one; entries between sheets are not determined by ``(N, d, theta, S')`` alone
and are found by a constrained search (linear unitarity constraints first,
then a lattice scan over the remaining degrees of freedom, least-squares
polish, and exact verification).  All inequivalent solutions are returned.

``double_data`` assembles quantum-double data for a minimal non-degenerate
extension: product with the conjugate copy, diagonal embedding of the
transparent part, centralizer, restriction, condensation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.optimize import least_squares

from .fusion import (
    DEFAULT_TOL,
    FusionData,
    InconsistentDataError,
    SubcategorySelection,
    full_subcategory,
)
from .modular import (
    PremodularData,
    centralizer,
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
    "degenerate_group",
    "orbit_decomposition",
    "condense",
    "double_data",
    "SupportCheck",
    "fusion_support_check",
]

# Resolution search parameters.  The kernel of the linear constraint system is
# scanned on a per-axis grid; anything beyond _MAX_KERNEL real dimensions is
# reported as unresolved rather than searched.
_MAX_KERNEL = 4
_GRID_PER_AXIS = {1: 2001, 2: 241, 3: 61, 4: 27}


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
    """A condensed label: orbit representative plus sheet index (1 for free orbits)."""

    source: int
    sheet: int
    name: str


@dataclass(frozen=True, eq=False)
class CondensedData:
    """Result of modularization, including all inequivalent sheet resolutions."""

    source: PremodularData
    decomposition: OrbitDecomposition
    labels: tuple[SheetLabel, ...]
    solutions: tuple[PremodularData, ...]
    status: str  # 'unique' | 'multiple' | 'unresolved'
    best_residual: float

    @property
    def group_order(self) -> int:
        return self.decomposition.group_order

    @property
    def n_solutions(self) -> int:
        return len(self.solutions)

    @property
    def data(self) -> PremodularData:
        if self.status != "unique":
            raise ResolutionError(
                f"resolution is {self.status} ({self.n_solutions} solutions, "
                f"best residual {self.best_residual:.3g})"
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
    if not center.is_even:
        bad = [p.names[a] for a in center.degenerate if abs(p.theta_values[a] - 1) > tol]
        raise ModularizationError(
            f"transparent subcategory is not even (twist != 1 at {', '.join(bad)}); "
            "modularization is undefined"
        )
    if not center.is_pointed:
        bad = [p.names[a] for a in center.degenerate if abs(p.dims[a] - 1) > tol]
        raise ModularizationError(
            f"transparent subcategory is not pointed (dimension > 1 at {', '.join(bad)})"
        )
    return center.degenerate, center.group_table


def orbit_decomposition(p: PremodularData, *, tol: float = DEFAULT_TOL) -> OrbitDecomposition:
    """Orbits of the label set under fusion with the transparent group.

    Asserted at runtime: orbits partition the labels with
    ``|orbit| * |stabilizer| = |G|``, twists are constant on orbits, and S'
    rows agree across each orbit on the centralizer of the group labels.
    """
    group, table = degenerate_group(p, tol=tol)
    n = p.rank
    act = {}
    for g in group:
        row_targets = []
        for x in range(n):
            targets = p.fusion.product_labels(g, x)
            if len(targets) != 1 or p.fusion.multiplicity(g, x, targets[0]) != 1:
                raise InconsistentDataError(
                    f"invertible label {p.names[g]} does not permute the label set"
                )
            row_targets.append(targets[0])
        act[g] = row_targets

    seen: set[int] = set()
    orbits: list[Orbit] = []
    for x in range(n):
        if x in seen:
            continue
        members = sorted({act[g][x] for g in group})
        stab = tuple(g for g in group if act[g][x] == x)
        if len(members) * len(stab) != len(group):
            raise InconsistentDataError(
                f"orbit of {p.names[x]} has size {len(members)} with stabilizer "
                f"{len(stab)} in a group of order {len(group)}"
            )
        seen.update(members)
        orbits.append(Orbit(representative=members[0], members=tuple(members), stabilizer=stab))

    scale = max(1.0, p.total_dim)
    cent_cols = list(centralizer(p, full_subcategory(p.fusion, group), tol=tol))
    for orb in orbits:
        r = orb.representative
        for m in orb.members:
            if abs(p.theta_values[m] - p.theta_values[r]) > tol:
                raise InconsistentDataError(
                    f"twist not constant on the orbit of {p.names[r]}"
                )
            dev = float(np.abs(p.sprime[m, cent_cols] - p.sprime[r, cent_cols]).max())
            if dev > tol * scale:
                raise InconsistentDataError(
                    f"S' rows differ across the orbit of {p.names[r]} (deviation {dev:.3g})"
                )
    return OrbitDecomposition(group_labels=group, group_table=table, orbits=tuple(orbits))


# -- sheet resolution ----------------------------------------------------------


def _sheet_permutations(labels: tuple[SheetLabel, ...]):
    """All label permutations that permute sheets within each fixed orbit."""
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab.source, []).append(i)
    sheet_groups = [idx for idx in groups.values() if len(idx) > 1]
    base = list(range(len(labels)))
    if not sheet_groups:
        yield base
        return
    for perms in itertools.product(*(itertools.permutations(g) for g in sheet_groups)):
        perm = base.copy()
        for g, pg in zip(sheet_groups, perms):
            for slot, src in zip(g, pg):
                perm[slot] = src
        yield perm


def _finalize_candidate(
    sprime_new: np.ndarray,
    d_new: np.ndarray,
    theta_new: tuple,
    names_new: tuple[str, ...],
    unit_new: int,
    accept_tol: float,
) -> tuple[PremodularData | None, float]:
    """Reconstruct fusion data via Verlinde and run the full verification gate.

    Returns the verified data and its worst residual, or ``(None, residual)``
    when the candidate fails integrality, positivity, or the premodular and
    modularity checks.
    """
    dim = float(np.sum(d_new**2))
    s = sprime_new / np.sqrt(dim)
    nver = verlinde_multiplicities(s, unit_new)
    int_err = float(np.abs(nver - np.round(nver.real)).max())
    if int_err > 1e-6:
        return None, int_err
    n_int = np.round(nver.real).astype(int)
    if n_int.min() < 0:
        return None, float(n_int.min())
    pairing = n_int[:, :, unit_new]
    if not (np.all(pairing.sum(axis=0) == 1) and np.all(pairing.sum(axis=1) == 1)):
        return None, 1.0
    dual_new = tuple(int(np.argmax(pairing[a])) for a in range(len(names_new)))
    try:
        fus = FusionData(names=names_new, unit=unit_new, dual=dual_new, tensor=n_int)
        cand = PremodularData(fusion=fus, dims=d_new, theta=theta_new, sprime=sprime_new)
    except ValueError:
        return None, 1.0
    report = verify_premodular(cand, tol=accept_tol)
    resid = max((c.residual for c in report.checks), default=0.0)
    if not report.passed:
        return None, resid
    mod = is_modular(cand, tol=accept_tol)
    if not mod.modular:
        return None, max(resid, mod.residual)
    return cand, max(resid, mod.residual)


def _resolve_sheets(
    base: np.ndarray,
    unknown_positions: list[tuple[int, int]],
    sum_rules: list[tuple[list[tuple[int, float]], complex]],
    d_new: np.ndarray,
    theta_new: tuple,
    labels: tuple[SheetLabel, ...],
    unit_new: int,
    accept_tol: float,
) -> tuple[list[PremodularData], float]:
    """Search the undetermined sheet-sheet block of the condensed S'.

    ``base`` holds all determined entries (zero at unknown positions).
    Returns the verified condensed data of every candidate passing the full
    verification gate, one per class of S' matrices equal up to sheet
    relabelling within 1e-6, plus the best residual seen (diagnostic when
    nothing passes).
    """
    m = len(unknown_positions)
    nn = base.shape[0]
    dim = float(np.sum(d_new**2))
    pos_index = {pos: k for k, pos in enumerate(unknown_positions)}
    sheet_rows = sorted({i for pos in unknown_positions for i in pos})
    free_rows = [i for i in range(nn) if i not in set(sheet_rows)]
    rows_u, cols_u = np.array(unknown_positions).T
    eye = np.eye(nn)

    def assemble(x: np.ndarray) -> np.ndarray:
        # S' with the unknowns x filled in, batched over leading axes of x
        s = np.empty(x.shape[:-1] + base.shape, dtype=complex)
        s[...] = base
        s[..., rows_u, cols_u] = x
        s[..., cols_u, rows_u] = x
        return s

    def gram_dev(s: np.ndarray) -> np.ndarray:
        # S' S'^dagger / dim - 1, zero exactly when S'/sqrt(dim) is unitary
        return s @ s.conj().swapaxes(-1, -2) / dim - eye

    # Real-linear system A v = rhs on v = [Re x; Im x]:
    # sum rules plus orthogonality of each known (free) row against each sheet row.
    rows_a: list[np.ndarray] = []
    rhs: list[float] = []

    def add_complex_row(coeffs: dict[int, complex], value: complex):
        re = np.zeros(2 * m)
        im = np.zeros(2 * m)
        for k, co in coeffs.items():
            re[k] += co.real
            re[m + k] += -co.imag
            im[k] += co.imag
            im[m + k] += co.real
        rows_a.extend([re, im])
        rhs.extend([value.real, value.imag])

    for terms, value in sum_rules:
        add_complex_row({k: complex(w) for k, w in terms}, value)

    for r in free_rows:
        for alpha in sheet_rows:
            # sum_beta S[r, beta] * conj(S[alpha, beta]) = 0; conjugated so it
            # is linear in the unknowns.
            const = 0.0 + 0.0j
            coeffs: dict[int, complex] = {}
            for beta in range(nn):
                key = (alpha, beta) if (alpha, beta) in pos_index else (beta, alpha)
                if key in pos_index:
                    k = pos_index[key]
                    coeffs[k] = coeffs.get(k, 0.0) + np.conj(base[r, beta])
                else:
                    const += np.conj(base[r, beta]) * base[alpha, beta]
            add_complex_row(coeffs, -const)

    a_mat = np.array(rows_a)
    rhs_vec = np.array(rhs)
    v0, *_ = np.linalg.lstsq(a_mat, rhs_vec, rcond=None)
    lin_resid = float(np.abs(a_mat @ v0 - rhs_vec).max())
    if lin_resid > 1e-6 * max(1.0, dim):
        return [], lin_resid

    _, sv, vh = np.linalg.svd(a_mat)
    null_mask = np.concatenate([sv, np.zeros(2 * m - len(sv))]) <= 1e-9 * max(1.0, sv[0])
    kernel = vh[null_mask.nonzero()[0]] if null_mask.any() else np.zeros((0, 2 * m))
    kdim = kernel.shape[0]

    def s_of(t: np.ndarray) -> np.ndarray:
        # S' at kernel coordinates t (batched over leading axes of t)
        v = v0 + t @ kernel
        return assemble(v[..., :m] + 1j * v[..., m:])

    max_mag = max(
        float(d_new[a] * d_new[b]) for a, b in unknown_positions
    )
    radius = 1.5 * max_mag + float(np.abs(v0[:m] + 1j * v0[m:]).max())

    if kdim == 0:
        seeds = [np.zeros(0)]
    elif kdim <= _MAX_KERNEL:
        axis = np.linspace(-radius, radius, _GRID_PER_AXIS[kdim])
        grids = np.meshgrid(*([axis] * kdim), indexing="ij")
        seeds_arr = np.stack([g.ravel() for g in grids], axis=1)
        # batched unitarity residual over all grid points
        s_batch = s_of(seeds_arr)
        resid1 = dim * np.abs(gram_dev(s_batch)).reshape(len(seeds_arr), -1).max(axis=1)
        band = resid1 <= max(0.12 * dim, resid1.min() * 2 + 1e-12)
        idx_band = np.nonzero(band)[0]
        if idx_band.size > 4000:
            idx_band = idx_band[np.argsort(resid1[idx_band])[:4000]]
        if idx_band.size == 0:
            return [], float(resid1.min())
        sb = s_batch[idx_band] / np.sqrt(dim)
        nver = np.einsum("pax,pbx,pcx,px->pabc", sb, sb, sb.conj(), 1.0 / sb[:, unit_new, :])
        ierr = np.abs(nver - np.round(nver.real)).reshape(idx_band.size, -1).max(axis=1)
        keep = np.nonzero(ierr < 0.35)[0]
        if keep.size == 0:
            return [], float(ierr.min())
        spacing = 2 * radius / (_GRID_PER_AXIS[kdim] - 1)
        chosen: list[np.ndarray] = []
        for p_i in keep[np.argsort(ierr[keep])]:
            t = seeds_arr[idx_band[p_i]]
            if all(np.abs(t - c).max() > 2.5 * spacing for c in chosen):
                chosen.append(t)
        seeds = chosen
    else:
        return [], float("inf")

    names_new = tuple(lab.name for lab in labels)
    solutions: list[PremodularData] = []
    best = np.inf

    def unitarity_vec(t: np.ndarray) -> np.ndarray:
        g = gram_dev(s_of(t))
        return np.concatenate([g.real.ravel(), g.imag.ravel()])

    for t_seed in seeds:
        if t_seed.size:
            fit = least_squares(unitarity_vec, t_seed, xtol=1e-14, ftol=1e-14, gtol=1e-14)
            t_cur = fit.x
        else:
            t_cur = t_seed
        s_cur = s_of(t_cur)
        su = s_cur / np.sqrt(dim)
        nver = verlinde_multiplicities(su, unit_new)
        if float(np.abs(nver - np.round(nver.real)).max()) > 0.2:
            continue
        n_int = np.round(nver.real)

        if t_cur.size:

            def full_vec(t: np.ndarray) -> np.ndarray:
                s = s_of(t)
                g = gram_dev(s)
                nv = verlinde_multiplicities(s / np.sqrt(dim), unit_new) - n_int
                return np.concatenate(
                    [g.real.ravel(), g.imag.ravel(), nv.real.ravel(), nv.imag.ravel()]
                )

            fit = least_squares(full_vec, t_cur, xtol=1e-15, ftol=1e-15, gtol=1e-15)
            s_cur = s_of(fit.x)

        cand, resid = _finalize_candidate(
            s_cur, d_new, theta_new, names_new, unit_new, accept_tol
        )
        best = min(best, resid)
        if cand is not None and not any(
            np.abs(cand.sprime[np.ix_(perm, perm)] - prev.sprime).max() <= 1e-6
            for prev in solutions
            for perm in _sheet_permutations(labels)
        ):
            solutions.append(cand)
    return solutions, best


def condense(p: PremodularData, *, tol: float = DEFAULT_TOL) -> CondensedData:
    """Condense premodular data by its even pointed transparent group.

    Free orbits keep the representative's dimension and twist; fixed orbits
    split into ``|stab|`` sheets of dimension ``d/|stab|``.  The result is
    rebuilt from the resolved S' (fusion via the Verlinde formula) and must
    pass the premodular and modularity gates; the global dimension drops by
    the group order.
    """
    dec = orbit_decomposition(p, tol=tol)
    g_order = dec.group_order

    if g_order == 1:
        labels = tuple(
            SheetLabel(source=o.representative, sheet=1, name=p.names[o.representative])
            for o in dec.orbits
        )
        return CondensedData(
            source=p, decomposition=dec, labels=labels,
            solutions=(p,), status="unique", best_residual=0.0,
        )

    labels: list[SheetLabel] = []
    for orb in dec.orbits:
        s = orb.sheet_count
        nm = p.names[orb.representative]
        if s == 1:
            labels.append(SheetLabel(orb.representative, 1, nm))
        else:
            labels.extend(SheetLabel(orb.representative, i + 1, f"{nm}#{i + 1}") for i in range(s))
    labels = tuple(labels)
    nn = len(labels)
    names_new = tuple(lab.name for lab in labels)
    orbit_index = {o.representative: j for j, o in enumerate(dec.orbits)}
    stab = {lab_i: dec.orbits[orbit_index[lab.source]].sheet_count for lab_i, lab in enumerate(labels)}
    d_new = np.array([p.dims[lab.source] / stab[i] for i, lab in enumerate(labels)])
    theta_new = tuple(p.theta[lab.source] for lab in labels)
    unit_new = next(i for i, lab in enumerate(labels) if lab.source == p.unit)

    dim_new = float(np.sum(d_new**2))
    if abs(dim_new * g_order - p.total_dim) > 1e-8 * max(1.0, p.total_dim):
        raise InconsistentDataError(
            f"condensed dimension {dim_new:.12g} times group order {g_order} "
            f"deviates from {p.total_dim:.12g}"
        )

    base = np.zeros((nn, nn), dtype=complex)
    unknown_positions: list[tuple[int, int]] = []
    for i, la in enumerate(labels):
        for j, lb in enumerate(labels):
            if j < i:
                continue
            sa, sb = stab[i], stab[j]
            if sa == 1 and sb == 1:
                base[i, j] = base[j, i] = p.sprime[la.source, lb.source]
            elif sa == 1 or sb == 1:
                val = p.sprime[la.source, lb.source] / max(sa, sb)
                base[i, j] = base[j, i] = val
            else:
                unknown_positions.append((i, j))

    if not unknown_positions:
        cand, resid = _finalize_candidate(base, d_new, theta_new, names_new, unit_new, max(tol, 1e-8))
        if cand is None:
            return CondensedData(
                source=p, decomposition=dec, labels=labels,
                solutions=(), status="unresolved", best_residual=resid,
            )
        return CondensedData(
            source=p, decomposition=dec, labels=labels,
            solutions=(cand,), status="unique", best_residual=resid,
        )

    # Sum rules: the image of each fixed-orbit pair keeps its source S' value.
    pos_index = {pos: k for k, pos in enumerate(unknown_positions)}
    fixed_orbits = [o for o in dec.orbits if o.sheet_count > 1]
    label_slots = {
        o.representative: [i for i, lab in enumerate(labels) if lab.source == o.representative]
        for o in fixed_orbits
    }
    sum_rules = []
    for oi in range(len(fixed_orbits)):
        for oj in range(oi, len(fixed_orbits)):
            slots_i = label_slots[fixed_orbits[oi].representative]
            slots_j = label_slots[fixed_orbits[oj].representative]
            weights: dict[int, float] = {}
            for a in slots_i:
                for b in slots_j:
                    key = (min(a, b), max(a, b))
                    weights[pos_index[key]] = weights.get(pos_index[key], 0.0) + 1.0
            value = complex(
                p.sprime[fixed_orbits[oi].representative, fixed_orbits[oj].representative]
            )
            sum_rules.append((list(weights.items()), value))

    finals, best = _resolve_sheets(
        base, unknown_positions, sum_rules, d_new, theta_new, labels, unit_new, max(tol, 1e-8),
    )

    status = {0: "unresolved", 1: "unique"}.get(len(finals), "multiple")
    return CondensedData(
        source=p, decomposition=dec, labels=labels,
        solutions=tuple(finals), status=status,
        best_residual=0.0 if finals else best,
    )


def double_data(
    hat: PremodularData,
    delta: SubcategorySelection | Iterable,
    *,
    tol: float = DEFAULT_TOL,
) -> CondensedData:
    """Quantum-double data of a subcategory inside a minimal modular extension.

    Pipeline: product with the conjugate copy, diagonal embedding of the
    subcategory's transparent part, centralizer, restriction, condensation.
    The resulting global dimension must equal the squared dimension of the
    subcategory.
    """
    from .families import product  # deferred to avoid an import cycle

    delta = full_subcategory(hat.fusion, delta)
    report = check_minimal_extension(hat, delta, tol=tol)
    if not report.passed:
        raise MinimalityError(
            "extension is not minimal: centralizer "
            f"{[hat.names[i] for i in report.centralizer_labels]} differs from the "
            f"transparent part {[hat.names[i] for i in report.degenerate_labels]}"
        )
    if not (report.center_even and report.center_pointed):
        raise MinimalityError(
            "transparent part of the subcategory must be even and pointed for the double"
        )

    prod = product(hat, hat.conjugate())
    nb = hat.rank
    embedded = sorted(s * nb + s for s in report.degenerate_labels)
    cent = centralizer(prod, full_subcategory(prod.fusion, embedded), tol=tol)
    restricted = prod.restrict(cent)

    pos = {c: i for i, c in enumerate(cent)}
    expected_deg = {pos[e] for e in embedded}
    actual_deg = set(muger_center(restricted, tol=tol).degenerate)
    if actual_deg != expected_deg:
        raise InconsistentDataError(
            "transparent part of the restricted product does not match the embedded group"
        )

    cond = condense(restricted, tol=tol)
    dim_sub = report.dim_sub
    for sol in cond.solutions:
        if abs(sol.total_dim - dim_sub**2) > 1e-8 * max(1.0, dim_sub**2):
            raise InconsistentDataError(
                f"double dimension {sol.total_dim:.12g} deviates from {dim_sub**2:.12g}"
            )
    return cond


@dataclass(frozen=True)
class SupportCheck:
    """Both sides of the weighted fusion-support identity for one label pair."""

    eta: int
    zeta: int
    weighted_sum: float
    expected: float
    chi: int
    passed: bool


def fusion_support_check(
    hat: PremodularData,
    delta: SubcategorySelection | Iterable,
    eta,
    zeta,
    *,
    tol: float = DEFAULT_TOL,
) -> SupportCheck:
    """Check that the dimension-weighted fusion channels of ``eta ⊗ dual(zeta)``
    landing in the subcategory carry weight ``d(eta) d(zeta)`` when all
    channels lie inside and zero when none do (all-or-nothing for a minimal
    extension).
    """
    delta = full_subcategory(hat.fusion, delta)
    members = delta.member_set
    e = hat.fusion.index(eta)
    z = hat.fusion.index(zeta)
    zbar = hat.fusion.dual[z]
    channels = hat.fusion.product_labels(e, zbar)
    chi = 1 if all(c in members for c in channels) else 0
    weighted = float(
        sum(
            hat.fusion.multiplicity(e, zbar, w) * hat.dims[w]
            for w in channels
            if w in members
        )
    )
    expected = float(hat.dims[e] * hat.dims[z]) * chi
    passed = abs(weighted - expected) <= tol * max(1.0, hat.dims[e] * hat.dims[z])
    return SupportCheck(
        eta=e, zeta=z, weighted_sum=weighted, expected=expected, chi=chi, passed=passed
    )
