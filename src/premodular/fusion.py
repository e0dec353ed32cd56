"""Fusion rings: finite label sets with duals and non-negative structure constants.

A fusion ring is stored as a dense integer tensor ``N[a, b, c]`` giving the
multiplicity of label ``c`` in the product ``a ⊗ b``, together with the unit
label and the dual involution.  Everything downstream (twists, S matrices,
condensation, surgery invariants) is built on this data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "FusionError",
    "ClosureError",
    "InconsistentDataError",
    "CheckResult",
    "ValidationReport",
    "FusionData",
    "SubcategorySelection",
    "validate_fusion",
    "perron_frobenius_dims",
    "global_dim",
    "deligne_product",
    "full_subcategory",
]

DEFAULT_TOL = 1e-9
# `validate_fusion` looks for Deligne factors (`_deligne_factors`) from this
# rank on.  With one BLAS thread on a 2-core Xeon virtual machine, over two
# runs, products of su2 levels took 0.47-0.73 ms in the dense associativity
# check at ranks 20-22 against 0.36-0.84 ms for the search and the factors'
# checks, and 0.69-1.25 ms at ranks 24-25 against 0.44-0.82 ms.
_FACTOR_MIN_RANK = 24
# deviations the associativity check evaluates per block of labels: below rank 33
# a block holds several labels, which saves the per-product overhead at small
# ranks.  On a 2-core Xeon virtual machine (2 MB L2 per core), rank 25 took
# 0.69-0.71 ms with 2**16 cells, 0.81 ms one label at a time, and up to 1.1
# and 1.7 ms with 2**17 and 2**18 cells, whose blocks leave the cache.
_ASSOCIATIVITY_BLOCK_CELLS = 2**16


class FusionError(ValueError):
    """Structurally malformed fusion data (bad labels, bad indices, bad N)."""


class ClosureError(FusionError):
    """A label subset is not closed under fusion; carries the offending triple."""

    def __init__(self, message: str, triple: tuple):
        super().__init__(message)
        self.triple = triple


class InconsistentDataError(ValueError):
    """Numerical data violates an identity it is required to satisfy."""


@dataclass(frozen=True, init=False)
class CheckResult:
    """Outcome of one named check: pass/fail, witness of failure, residual size."""

    name: str
    passed: bool
    witness: object = None
    residual: float = 0.0

    def __init__(self, name: str, passed: bool, witness: object = None, residual: float = 0.0):
        # one dict update: the generated frozen __init__ calls object.__setattr__
        # once per field, which is most of its cost
        self.__dict__.update(name=name, passed=passed, witness=witness, residual=residual)

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        extra = ""
        if not self.passed and self.witness is not None:
            extra = f" witness={self.witness}"
        if self.residual:
            extra += f" residual={self.residual:.3g}"
        return f"{self.name}: {status}{extra}"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __iter__(self):
        return iter(self.checks)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _as_int(x, what: str) -> int:
    """``x`` as an integer that fits int64, or a FusionError naming ``what``."""
    try:
        i = int(x)
    except (OverflowError, TypeError, ValueError):
        raise FusionError(f"{what} {x!r} is not a finite integer") from None
    if i != x:
        raise FusionError(f"{what} {x!r} is not an integer")
    if not -(2**63) <= i < 2**63:
        raise FusionError(f"{what} {x!r} does not fit in int64")
    return i


def _resolve(index: Mapping[str, int], n: int, x) -> int:
    """A label as an index: a name in ``index``, or an integer in ``range(n)`` by `_as_int`'s rule."""
    if isinstance(x, str):
        i = index.get(x)
        if i is None:
            raise FusionError(f"unknown label {x!r}")
        return i
    i = _as_int(x, "label index")
    if not 0 <= i < n:
        raise FusionError(f"label index {i} out of range")
    return i


def _cell_names(names: tuple[str, ...], cell: int) -> tuple[str, ...]:
    n = len(names)
    return tuple(names[i] for i in np.unravel_index(int(cell), (n, n, n)))


@dataclass(frozen=True, eq=False)
class FusionData:
    """A fusion ring on an ordered label set.

    ``tensor[a, b, c]`` is the multiplicity of ``c`` in ``a ⊗ b``.  ``unit``
    and ``dual`` are given by index.  Instances are immutable; all operations
    on them are pure functions.
    """

    names: tuple[str, ...]
    unit: int
    dual: tuple[int, ...]
    tensor: np.ndarray

    def __post_init__(self):
        n = len(self.names)
        if n == 0:
            raise FusionError("label set is empty")
        positions = {nm: i for i, nm in enumerate(self.names)}
        if len(positions) != n:
            raise FusionError("duplicate label names")
        object.__setattr__(self, "_positions", positions)
        if not (0 <= self.unit < n):
            raise FusionError(f"unit index {self.unit} out of range")
        if len(self.dual) != n or any(not (0 <= d < n) for d in self.dual):
            raise FusionError("dual map is not an index map on the label set")
        t = np.asarray(self.tensor)
        if t.shape != (n, n, n):
            raise FusionError(f"multiplicity tensor has shape {t.shape}, expected {(n, n, n)}")
        if t.dtype.kind == "u" and t.max() >= 2**63:
            _as_int(t.max().item(), "multiplicity")  # raises: astype(int) would wrap it
        elif t.dtype.kind not in "iu":  # np.issubdtype(t.dtype, np.integer)
            # `_as_int`'s rule: integral and within int64 (NaN and inf fail both)
            bad = ~((t == np.round(t)) & (t >= -(2.0**63)) & (t < 2.0**63))
            if bad.any():
                _as_int(t.flat[bad.argmax()].item(), "multiplicity")  # raises
        object.__setattr__(self, "tensor", _readonly(t.astype(int)))

    @classmethod
    def from_entries(
        cls,
        names: Sequence[str],
        unit: int | str,
        dual: Mapping | Sequence,
        entries: Mapping[tuple, int] | Iterable[tuple],
    ) -> "FusionData":
        """Build from a sparse list of ``(a, b, c, m)`` entries (labels by name or index).

        A label index must be an integer in range, a multiplicity a
        non-negative integer that fits int64, and no ``(a, b, c)`` may repeat.
        """
        names = tuple(str(x) for x in names)
        n = len(names)
        index = {nm: i for i, nm in enumerate(names)}

        resolve = partial(_resolve, index, n)
        if isinstance(dual, Mapping):
            dual_idx = list(range(n))
            for k, v in dual.items():
                dual_idx[resolve(k)] = resolve(v)
        else:
            dual_idx = [resolve(x) for x in dual]
        if isinstance(entries, Mapping):
            entries = [(a, b, c, m) for (a, b, c), m in entries.items()]
        # known names by one dict lookup each; indices and unknown names through _resolve
        get = index.get
        cells, mults = [], []
        for a, b, c, m in entries:
            try:
                ia, ib, ic = get(a), get(b), get(c)
            except TypeError:  # an unhashable label is no name; _resolve rejects it
                ia = ib = ic = None
            if ia is None:
                ia = resolve(a)
            if ib is None:
                ib = resolve(b)
            if ic is None:
                ic = resolve(c)
            cells.append((ia * n + ib) * n + ic)
            mults.append(m)
        cells = np.array(cells, dtype=np.intp)
        mult = np.array(mults)
        if mult.dtype.kind != "i" or mult.ndim != 1:
            mult = np.array([_as_int(m, "multiplicity") for m in mults], dtype=np.int64)
        if mult.size and mult.min() < 0:
            raise FusionError(f"negative multiplicity at {_cell_names(names, cells[mult.argmin()])}")
        # as many distinct cells as entries, or the first repeated cell is named
        hit = np.zeros(n**3, dtype=bool)
        hit[cells] = True
        if np.count_nonzero(hit) < len(cells):
            ordered = np.sort(cells)
            repeated = ordered[1:][ordered[1:] == ordered[:-1]]
            raise FusionError(f"repeated entry for {_cell_names(names, repeated[0])}")
        tensor = np.zeros(n**3, dtype=int)
        tensor[cells] = mult
        return cls(names=names, unit=resolve(unit), dual=tuple(dual_idx), tensor=tensor.reshape(n, n, n))

    # -- basic queries ------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.names)

    @cached_property
    def _float_tensor(self) -> np.ndarray:
        # the multiplicities as floats, read-only: the premodular checks read them
        return _readonly(self.tensor.astype(float))

    def index(self, x) -> int:
        """Resolve a label given as a name or an integer index."""
        return _resolve(self._positions, self.rank, x)

    def multiplicity(self, a, b, c) -> int:
        return int(self.tensor[self.index(a), self.index(b), self.index(c)])

    def nonzero(self) -> Iterable[tuple[tuple[int, int, int], int]]:
        """Sparse view of the multiplicity tensor, in row-major ``(a, b, c)`` order."""
        cells = np.nonzero(self.tensor)
        return zip(zip(*(i.tolist() for i in cells)), self.tensor[cells].tolist())

    def same_ring(self, other: "FusionData") -> bool:
        """Equality of the underlying data, ignoring display names."""
        return (
            self.rank == other.rank
            and self.unit == other.unit
            and self.dual == other.dual
            and np.array_equal(self.tensor, other.tensor)
        )


# -- validation --------------------------------------------------------------


def validate_fusion(f: FusionData) -> ValidationReport:
    """Check the fusion-ring axioms, one report entry per invariant.

    Structural problems (negative or non-integer multiplicities, a dual map
    that is not a bijection) are reported under ``structure:*`` names,
    distinct from the axiom checks.
    """
    checks: list[CheckResult] = []
    n, u, t, dual = f.rank, f.unit, f.tensor, f.dual

    checks.append(CheckResult("structure:labels", len(set(f.names)) == n and n > 0))
    neg = None
    if t.min() < 0:  # the witness is looked for only when the sign fails
        neg = tuple(f.names[i] for i in np.argwhere(t < 0)[0])
    checks.append(CheckResult("structure:multiplicities", neg is None, neg))
    checks.append(CheckResult("structure:dual_bijective", sorted(dual) == list(range(n))))

    eye = np.eye(n, dtype=int)
    unit_ok = bool((t[u] == eye).all() and (t[:, u] == eye).all())
    unit_wit = None
    if not unit_ok:
        bad = np.argwhere(t[u] != eye)
        if bad.size:
            unit_wit = ("unit", f.names[bad[0][0]], f.names[bad[0][1]])
        else:
            bad = np.argwhere(t[:, u, :] != eye)
            unit_wit = (f.names[bad[0][0]], "unit", f.names[bad[0][1]])
    checks.append(CheckResult("axiom:unit", unit_ok, unit_wit))

    invol_ok = dual[u] == u and all(dual[b] == a for a, b in enumerate(dual))
    checks.append(CheckResult("axiom:dual_involution", invol_ok))

    # Frobenius reciprocity: N[a,b,c] = N[dual b, dual a, dual c] = N[dual a, c, b];
    # chained gathers, each freeing the one before it
    ix = np.array(dual)
    frob1 = t.take(ix, 0).take(ix, 1).take(ix, 2).transpose(1, 0, 2)
    frob2 = t.take(ix, 0).transpose(0, 2, 1)
    frob_ok = bool((t == frob1).all() and (t == frob2).all())
    frob_wit = None
    if not frob_ok:
        frob_dev = np.abs(t - frob1) + np.abs(t - frob2)
        a, b, c = np.unravel_index(int(frob_dev.argmax()), frob_dev.shape)
        frob_wit = (f.names[a], f.names[b], f.names[c])
    checks.append(CheckResult("axiom:frobenius_reciprocity", frob_ok, frob_wit))

    residual, worst = _checked_associativity(f)
    assoc_wit = None if worst is None else tuple(f.names[i] for i in worst)
    checks.append(CheckResult("axiom:associativity", worst is None, assoc_wit, residual))

    return ValidationReport(tuple(checks))


def _exact_dtype(t: np.ndarray) -> type:
    """Narrowest dtype in which both bracketings of ``t`` and their difference are exact.

    Each entry of ``N_a N_b`` is a sum of n products of magnitude at most
    ``max|N|**2``, so every partial sum is an integer of magnitude at most
    ``n * max|N|**2``; a negative entry can give the two bracketings opposite
    signs, which doubles the bound for their difference.  Float32 holds every
    integer up to ``2**24``, float64 up to ``2**53``, int64 below ``2**63``;
    beyond that the products run on Python integers (object dtype).
    """
    lo, hi = int(t.min()), int(t.max())
    big = max(hi, -lo)
    reach = t.shape[0] * big * big * (2 if lo < 0 else 1)
    if reach < 2**24:
        return np.float32
    if reach < 2**53:
        return np.float64
    if reach < 2**63:
        return np.int64
    return object


def _associativity_deviation(t: np.ndarray) -> tuple[float, tuple[int, ...] | None]:
    """Largest ``|sum_e N[a,b,e] N[e,c,d] - sum_f N[b,c,f] N[a,f,d]|`` and its first index.

    Evaluated for a block of labels ``a`` at a time as ``N_a N_b = sum_e
    N[a,b,e] N_e``, two matrix products of n^4 multiply-adds per label, in
    the narrowest dtype that keeps every value an exact integer
    (`_exact_dtype`).  A block holds as many labels as fit in
    ``_ASSOCIATIVITY_BLOCK_CELLS`` deviations, and at least one, so the
    memory stays O(n^3).  The index is the first maximum in ``(a, b, c, d)``
    order, or None when the ring is associative.
    """
    n = t.shape[0]
    tt = t.astype(_exact_dtype(t))
    rows = tt.reshape(n, n * n)
    pairs = tt.reshape(n * n, n)
    step = max(1, _ASSOCIATIVITY_BLOCK_CELLS // n**3)
    residual, worst = 0, None
    for a in range(0, n, step):
        block = tt[a:a + step]
        dev = block @ rows
        dev -= (pairs @ block).reshape(dev.shape)
        np.abs(dev, out=dev)
        i = int(dev.argmax())
        if dev.flat[i] > residual:
            residual = dev.flat[i]
            first, *rest = np.unravel_index(i, (len(block), n, n, n))
            worst = (a + int(first), *rest)
    return float(residual), worst


def _checked_associativity(f: FusionData) -> tuple[float, tuple[int, ...] | None]:
    """`_associativity_deviation` of ``f``: 0 and None when ``f`` has Deligne
    factors and both are associative, since both bracketings are then
    products of the factors'; otherwise evaluated on the whole ring."""
    t = f.tensor
    factors = _deligne_factors(f) if f.rank >= _FACTOR_MIN_RANK else None
    if factors is not None and not any(_associativity_deviation(t[np.ix_(s, s, s)])[0] for s in factors[:2]):
        return 0.0, None
    return _associativity_deviation(t)


def _deligne_factors(f: FusionData) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Labels ``A``, ``B`` of two singly generated subcategories with ``f = A ⊠ B``, or None.

    Each candidate is the set of labels the unit reaches by fusing with one
    label ``x`` and its dual, found for every ``x`` at once.  A pair is
    accepted only when it factors ``N`` exactly: ``|A|·|B| = n`` and
    ``A ∩ B = {unit}``, every ``A[i] ⊗ B[j]`` is one label ``phi[i, j]``
    with multiplicity 1, ``phi`` is a bijection, and
    ``N[phi(a,b), phi(a',b'), phi(a'',b'')] = N_A[a,a',a''] · N_B[b,b',b'']``.
    Then either bracketing of ``f`` is the product of the factors'.  The
    temporaries are one boolean n³ array and integer slabs of ``n³/|A|`` cells.
    """
    t, n = f.tensor, f.rank
    if all(n % k for k in range(2, math.isqrt(n) + 1)):
        return None
    if max(int(t.max()), -int(t.min())) >= 2**31:
        return None  # a product of two entries could leave int64
    # step[x, b, c]: c occurs in b ⊗ x or in b ⊗ x*
    step = np.not_equal(t.transpose(1, 0, 2), 0, out=np.empty((n, n, n), dtype=bool))
    for x, y in enumerate(f.dual):
        step[x] |= step[y]
    reach = np.zeros((n, 1, n), dtype=bool)
    reach[..., f.unit] = True
    while not np.array_equal(grown := reach | reach @ step, reach):
        reach = grown
    reach = reach[:, 0]
    sets = np.array([row for row in {row.tobytes(): row for row in reach}.values() if row.sum() > 1],
                    dtype=bool).reshape(-1, n)
    sizes = sets.sum(axis=1)
    meet = sets.astype(np.int64) @ sets.T.astype(np.int64)
    pairs = (sizes[:, None] * sizes == n) & (meet == 1)
    for i, j in zip(*np.nonzero(pairs)):
        if i > j:
            continue
        A, B = np.flatnonzero(sets[i]), np.flatnonzero(sets[j])
        prod = t[A[:, None], B]
        one = prod == 1
        if not (one.sum(axis=-1) == 1).all() or np.count_nonzero(prod) != n:
            continue
        phi = one.argmax(axis=-1)
        hit = np.zeros(n, dtype=bool)
        hit[phi] = True
        if not hit.all():
            continue
        ta, tb, perm = t[np.ix_(A, A, A)], t[np.ix_(B, B, B)], phi.ravel()
        for a in range(A.size):
            slab = t[phi[a]][:, perm[:, None], perm]
            kron = ta[a][None, :, None, :, None] * tb[:, None, :, None, :]
            if not np.array_equal(slab, kron.reshape(slab.shape)):
                break
        else:
            return A, B, phi
    return None


# -- quantum dimensions ------------------------------------------------------


def perron_frobenius_dims(f: FusionData) -> np.ndarray:
    """Quantum dimensions as the common Perron-Frobenius eigenvector.

    The dimension vector is the unique positive common eigenvector of all
    fusion matrices, normalised so that ``d[unit] = 1``; then ``d[a]`` equals
    the largest eigenvalue of ``N_a``.  It is read from one eigendecomposition
    of ``M = sum_a N_a``: the real part of the eigenvector whose eigenvalue
    has the largest real part.  A vector that vanishes at the unit, has an
    entry that is not strictly positive or is not multiplicative shows that
    the ring has no dimension vector, and raises
    :class:`InconsistentDataError`.
    """
    w, vecs = np.linalg.eig(f.tensor.sum(axis=0).astype(float))
    v = vecs[:, int(w.real.argmax())].real
    if v[f.unit] == 0:
        raise InconsistentDataError("the Perron-Frobenius vector vanishes at the unit")
    d = v / v[f.unit]
    if not (d > 0).all():  # NaN fails too
        a = f.names[int((~(d > 0)).argmax())]
        raise InconsistentDataError(f"the Perron-Frobenius vector is not positive at {a}")
    resid = np.abs(np.outer(d, d) - np.einsum("abc,c->ab", f.tensor, d)).max()
    if not resid <= 1e-8 * max(1.0, float(d.max()) ** 2):  # NaN fails too
        raise InconsistentDataError(
            f"dimension vector violates multiplicativity (residual {resid:.3g})"
        )
    return d


def global_dim(f: FusionData, dims: np.ndarray) -> float:
    """Global dimension (global index): the sum of squared quantum dimensions."""
    dims = np.asarray(dims, dtype=float)
    if dims.shape != (f.rank,):
        raise FusionError("dimension vector does not match the label set")
    return float((dims * dims).sum())


# -- constructions -----------------------------------------------------------


def deligne_product(a: FusionData, b: FusionData) -> FusionData:
    """Product ring on label pairs, with componentwise unit, dual, and N."""
    return _on_pairs(a, b, *np.divmod(np.arange(a.rank * b.rank), b.rank))


def _on_pairs(a: FusionData, b: FusionData, ia: np.ndarray, ib: np.ndarray) -> FusionData:
    """``a ⊠ b`` on label pairs ``(ia[k], ib[k])`` named ``(x,y)``, a set holding the unit pair and closed
    under duals and fusion.  N is multiplied in place: the peak is the two factor gathers, two |pairs|³ arrays."""
    pos = np.full((a.rank, b.rank), -1)
    pos[ia, ib] = np.arange(len(ia))
    tensor = a.tensor.take(ia, 2).take(ia, 1).take(ia, 0)  # last axis first: later takes copy whole rows
    tensor *= b.tensor.take(ib, 2).take(ib, 1).take(ib, 0)
    names = tuple(f"({a.names[x]},{b.names[y]})" for x, y in zip(ia.tolist(), ib.tolist()))
    dual = pos[np.array(a.dual)[ia], np.array(b.dual)[ib]].tolist()
    return FusionData(names=names, unit=int(pos[a.unit, b.unit]), dual=tuple(dual), tensor=tensor)


def _take(f: FusionData, idx: Sequence[int]) -> FusionData:
    """The ring on the labels ``idx`` of ``f``, new label ``i`` being old label ``idx[i]``.

    ``idx`` is a checked selection or a permutation: it holds the unit and is closed.
    """
    pos = {x: i for i, x in enumerate(idx)}
    return FusionData(
        names=tuple(f.names[i] for i in idx),
        unit=pos[f.unit],
        dual=tuple(pos[f.dual[i]] for i in idx),
        tensor=f.tensor[np.ix_(idx, idx, idx)],
    )


@dataclass(frozen=True, eq=False)
class SubcategorySelection:
    """A fusion-closed label subset of a parent ring."""

    parent: FusionData
    members: tuple[int, ...]

    def restricted(self) -> FusionData:
        """The induced fusion ring on the selected labels, re-indexed."""
        return _take(self.parent, self.members)


def _member_indices(f: FusionData, members: Iterable | SubcategorySelection) -> tuple[int, ...]:
    """The sorted label indices of ``members``: names, indices, or a selection by index."""
    if isinstance(members, SubcategorySelection):
        members = members.members
    return tuple(sorted({f.index(x) for x in members}))


def full_subcategory(f: FusionData, members: Iterable | SubcategorySelection) -> SubcategorySelection:
    """Select a label subset after verifying it is a full fusion subcategory.

    The subset must contain the unit, be closed under duals, and be closed
    under fusion; a closure violation raises :class:`ClosureError` carrying
    the first offending triple ``(a, b, c)``.  A selection of ``f`` passes
    through unchanged; a selection of another ring is checked again by index.
    """
    if isinstance(members, SubcategorySelection) and members.parent is f:
        return members
    return _closed_selection(f, _member_indices(f, members))


def _closed_selection(f: FusionData, idx: tuple[int, ...]) -> SubcategorySelection:
    """``full_subcategory`` on sorted distinct label indices ``idx``."""
    inside = np.zeros(f.rank, dtype=bool)
    inside[list(idx)] = True
    if not inside[f.unit]:
        raise ClosureError("subset does not contain the unit", (f.names[f.unit],))
    for a in idx:
        if not inside[f.dual[a]]:
            raise ClosureError(
                f"subset not closed under duals at {f.names[a]}",
                (f.names[a], f.names[f.dual[a]]),
            )
    # the channels of member pairs that leave the subset, in (a, b, c) order
    rows = np.array(idx)
    outside = np.flatnonzero(~inside)
    leaks = f.tensor[rows[:, None, None], rows[:, None], outside] != 0
    if leaks.any():
        i, j, k = np.unravel_index(int(leaks.argmax()), leaks.shape)
        a, b, c = f.names[idx[i]], f.names[idx[j]], f.names[outside[k]]
        raise ClosureError(f"subset not closed under fusion at ({a}, {b}, {c})", (a, b, c))
    return SubcategorySelection(parent=f, members=idx)
