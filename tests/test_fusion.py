import copy
import dataclasses
import math
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from premodular import families
from premodular.fusion import (
    CheckResult,
    ClosureError,
    FusionData,
    FusionError,
    InconsistentDataError,
    _member_indices,
    deligne_product,
    full_subcategory,
    global_dim,
    perron_frobenius_dims,
    validate_fusion,
)


def brute_associativity(f):
    """Independent oracle: the quadruple sums, written as plain loops."""
    n = f.rank
    worst = None
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    lhs = sum(f.multiplicity(a, b, e) * f.multiplicity(e, c, d) for e in range(n))
                    rhs = sum(f.multiplicity(b, c, e) * f.multiplicity(a, e, d) for e in range(n))
                    if lhs != rhs:
                        worst = (a, b, c, d, lhs, rhs)
                        return worst
    return worst


def z2_ring():
    return FusionData.from_entries(
        ["0", "1"], "0", {"0": "0", "1": "1"},
        [("0", "0", "0", 1), ("0", "1", "1", 1), ("1", "0", "1", 1), ("1", "1", "0", 1)],
    )


def broken_ising_ring():
    # sigma x sigma = 1 + 2*eps genuinely breaks associativity: eps(sigma sigma)
    # contains 2 copies of the unit while (eps sigma)sigma contains one.
    return FusionData.from_entries(
        ["1", "eps", "sigma"], "1",
        {"1": "1", "eps": "eps", "sigma": "sigma"},
        [
            ("1", "1", "1", 1), ("1", "eps", "eps", 1), ("1", "sigma", "sigma", 1),
            ("eps", "1", "eps", 1), ("sigma", "1", "sigma", 1),
            ("eps", "eps", "1", 1),
            ("eps", "sigma", "sigma", 1), ("sigma", "eps", "sigma", 1),
            ("sigma", "sigma", "1", 1), ("sigma", "sigma", "eps", 2),
        ],
    )


@dataclasses.dataclass(frozen=True)
class PlainCheckResult:
    """Oracle: `CheckResult` with the frozen dataclass's generated ``__init__``."""

    name: str
    passed: bool
    witness: object = None
    residual: float = 0.0


@pytest.mark.parametrize("fields", [("a", True), ("b", False, ("x", "y"), 0.5), ("c", True, "skipped", 1e-300)])
def test_check_result_behaves_as_the_plain_dataclass(fields):
    c, plain = CheckResult(*fields), PlainCheckResult(*fields)
    assert repr(c) == repr(plain).replace("PlainCheckResult", "CheckResult")
    assert dataclasses.astuple(c) == dataclasses.astuple(plain) and vars(c) == vars(plain)
    assert hash(c) == hash(plain) and c == CheckResult(*fields[:2], *fields[2:])
    assert c != CheckResult(fields[0] + "'", *fields[1:])
    for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c)), dataclasses.replace(c)):
        assert type(twin) is CheckResult and repr(twin) == repr(c) and hash(twin) == hash(c)
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.passed = not c.passed
    assert CheckResult(name="d", passed=True, residual=2.0) == CheckResult("d", True, None, 2.0)


class TestValidateFusion:
    def test_z2_all_pass(self):
        report = validate_fusion(z2_ring())
        assert report.passed
        assert brute_associativity(z2_ring()) is None

    def test_fibonacci_passes_with_brute_force_oracle(self):
        f = families.fibonacci().fusion
        assert brute_associativity(f) is None
        assert validate_fusion(f).passed

    def test_associativity_failure_carries_witness(self):
        f = broken_ising_ring()
        assert brute_associativity(f) is not None
        report = validate_fusion(f)
        check = report["axiom:associativity"]
        assert not check.passed
        a, b, c, d = (f.index(x) for x in check.witness)
        lhs = sum(f.multiplicity(a, b, e) * f.multiplicity(e, c, d) for e in range(f.rank))
        rhs = sum(f.multiplicity(b, c, e) * f.multiplicity(a, e, d) for e in range(f.rank))
        assert lhs != rhs

    def test_doubled_fibonacci_coefficient_is_still_associative(self):
        # tau x tau = 1 + 2 tau defines the commutative ring Z[x]/(x^2-2x-1),
        # which is associative; the validator must agree with the oracle.
        f = FusionData.from_entries(
            ["1", "tau"], "1", {"1": "1", "tau": "tau"},
            [("1", "1", "1", 1), ("1", "tau", "tau", 1), ("tau", "1", "tau", 1),
             ("tau", "tau", "1", 1), ("tau", "tau", "tau", 2)],
        )
        assert brute_associativity(f) is None
        assert validate_fusion(f)["axiom:associativity"].passed

    def test_rank_81_memory_stays_cubic(self):
        # dense n^4 tensors of both bracketings would take 1.3 GB at rank 81
        f = families.builtin("prod(su2:8,conj(su2:8))").fusion
        tracemalloc.start()
        try:
            report = validate_fusion(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 64 * 2**20

    def test_rank_81_memory_stays_cubic_on_the_whole_ring(self):
        # the rank-81 product is checked on its factors; this keeps the whole-ring check under the bound
        f = families.builtin("prod(su2:8,conj(su2:8))").fusion
        tracemalloc.start()
        try:
            with mock.patch("premodular.fusion._FACTOR_MIN_RANK", math.inf):
                report = validate_fusion(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 64 * 2**20

    def test_frobenius_failure(self):
        f = FusionData.from_entries(
            ["0", "a", "b"], "0", {"0": "0", "a": "b", "b": "a"},
            [("0", "0", "0", 1), ("0", "a", "a", 1), ("0", "b", "b", 1),
             ("a", "0", "a", 1), ("b", "0", "b", 1),
             ("a", "b", "0", 1), ("b", "a", "0", 1),
             ("a", "a", "b", 1), ("b", "b", "a", 2)],
        )
        assert not validate_fusion(f)["axiom:frobenius_reciprocity"].passed

    def test_structural_errors_distinct(self):
        with pytest.raises(FusionError, match="duplicate"):
            FusionData.from_entries(["x", "x"], "x", ["x", "x"], [])
        with pytest.raises(FusionError, match="unknown label"):
            FusionData.from_entries(["0"], "0", {"0": "0"}, [("0", "0", "w", 1)])
        with pytest.raises(FusionError, match="negative"):
            FusionData.from_entries(["0"], "0", {"0": "0"}, [("0", "0", "0", -1)])
        with pytest.raises(FusionError, match="not an integer"):
            FusionData.from_entries(["0"], "0", {"0": "0"}, [("0", "0", "0", 1.5)])
        with pytest.raises(FusionError, match="label index 0.5 is not an integer"):
            FusionData.from_entries(["0"], "0", {"0": "0"}, [(0.5, "0", "0", 1)])
        with pytest.raises(FusionError, match="repeated entry"):
            FusionData.from_entries(["0"], "0", {"0": "0"}, [("0", "0", "0", 1)] * 2)
        with pytest.raises(FusionError, match="not a finite integer"):
            FusionData.from_entries(["0"], "0", {"0": "0"}, [("0", "0", "0", float("inf"))])
        with pytest.raises(FusionError, match="int64"):
            FusionData.from_entries(["0"], "0", {"0": "0"}, [("0", "0", "0", 2**63)])


class TestPerronFrobenius:
    def test_pointed_dims_are_one(self):
        for n in (2, 3, 5):
            f = families.pointed_cyclic(n, 0).fusion
            assert np.allclose(perron_frobenius_dims(f), 1.0)

    def test_fibonacci_golden_ratio(self):
        # oracle: positive root of x^2 = x + 1
        root = max(np.roots([1, -1, -1]).real)
        d = perron_frobenius_dims(families.fibonacci().fusion)
        assert abs(d[1] - root) < 1e-9

    def test_ising_sqrt2(self):
        root = max(np.roots([1, 0, -2]).real)
        d = perron_frobenius_dims(families.ising().fusion)
        assert abs(d[2] - root) < 1e-9

    def test_su2_matches_eigenvalue_oracle(self, su2_4):
        d = perron_frobenius_dims(su2_4.fusion)
        for a in range(su2_4.rank):
            top = max(np.linalg.eigvals(su2_4.fusion.tensor[a]).real)
            assert abs(d[a] - top) < 1e-9
        assert np.abs(d - su2_4.dims).max() < 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cells", [[], [(1, 1, 1)]], ids=["zero-sum", "only-b-b-b"])
    def test_ring_without_a_perron_frobenius_vector_raises(self, cells):
        # a zero matrix sum, and one whose Perron-Frobenius vector vanishes at the unit
        t = np.zeros((2, 2, 2), dtype=int)
        for cell in cells:
            t[cell] = 1
        f = FusionData(names=("a", "b"), unit=0, dual=(0, 1), tensor=t)
        with pytest.raises(InconsistentDataError):
            perron_frobenius_dims(f)


class TestGlobalDim:
    def test_z2(self):
        f = z2_ring()
        assert global_dim(f, perron_frobenius_dims(f)) == pytest.approx(2.0)

    def test_fibonacci(self):
        p = families.fibonacci()
        phi = (1 + np.sqrt(5)) / 2
        assert global_dim(p.fusion, p.dims) == pytest.approx(1 + phi**2, abs=1e-9)
        assert global_dim(p.fusion, p.dims) == pytest.approx((5 + np.sqrt(5)) / 2, abs=1e-9)

    def test_su2_4_by_quadrature_of_closed_form(self, su2_4):
        # oracle: sum of sin^2((a+1) pi/6)/sin^2(pi/6)
        expect = sum(np.sin((a + 1) * np.pi / 6) ** 2 for a in range(5)) / np.sin(np.pi / 6) ** 2
        assert global_dim(su2_4.fusion, su2_4.dims) == pytest.approx(expect, abs=1e-9)
        assert expect == pytest.approx(12.0, abs=1e-12)


class TestDeligneProduct:
    def test_klein_four(self):
        f = deligne_product(z2_ring(), z2_ring())
        assert f.rank == 4
        assert validate_fusion(f).passed
        for a in range(4):
            assert f.multiplicity(a, a, f.unit) == 1
            assert f.dual[a] == a

    def test_fibonacci_square_global_dim(self):
        p = families.fibonacci()
        f = deligne_product(p.fusion, p.fusion)
        d = perron_frobenius_dims(f)
        assert global_dim(f, d) == pytest.approx(((5 + np.sqrt(5)) / 2) ** 2, abs=1e-8)

    def test_su2_4_times_conjugate(self, su2_4):
        prod = families.product(su2_4, families.conjugate(su2_4))
        assert prod.rank == 25
        assert prod.total_dim == pytest.approx(144.0, abs=1e-8)


class TestFullSubcategory:
    def test_integer_spins_closed(self, su2_4):
        sel = full_subcategory(su2_4.fusion, [0, 2, 4])
        assert sel.members == (0, 2, 4)
        sub = sel.restricted()
        assert validate_fusion(sub).passed

    def test_closure_error_reports_triple(self, su2_4):
        with pytest.raises(ClosureError) as err:
            full_subcategory(su2_4.fusion, [0, 1])
        assert err.value.triple == ("1", "1", "2")

    def test_unit_only_is_valid(self, su2_4):
        sel = full_subcategory(su2_4.fusion, [0])
        assert sel.members == (0,)

    def test_dual_closure_enforced(self):
        f = families.pointed_cyclic(3, 0).fusion
        with pytest.raises(ClosureError):
            full_subcategory(f, [0, 1])

    def test_integral_float_labels_are_accepted(self, su2_4):
        assert full_subcategory(su2_4.fusion, [0, 2.0, np.int64(4)]).members == (0, 2, 4)

    @pytest.mark.parametrize("members", [[0, 2.0, 4.9], [0, 1.5]], ids=["4.9", "1.5"])
    def test_non_integral_label_is_rejected_not_truncated(self, su2_4, members):
        with pytest.raises(FusionError, match="is not an integer"):
            full_subcategory(su2_4.fusion, members)

    def test_selection_of_another_ring_is_checked_again(self, su2_4):
        # {0, 2} is the Z2 of su2:2, but 2 x 2 = 0 + 2 + 4 in su2:4
        foreign = full_subcategory(families.su2(2).fusion, [0, 2])
        with pytest.raises(ClosureError) as err:
            full_subcategory(su2_4.fusion, foreign)
        assert err.value.triple == ("2", "2", "4")
        own = full_subcategory(su2_4.fusion, [0, 2, 4])
        assert full_subcategory(su2_4.fusion, own) is own
        assert full_subcategory(families.su2(4).fusion, own).members == (0, 2, 4)


def _resolved_by_index(f, x):
    return f.index(x)


def _resolved_by_from_entries(f, x):
    # the unit argument and an entry label both go through from_entries' resolution
    g = FusionData.from_entries(f.names, x, f.dual, [(x, 0, x, 1)])
    (cell, _), = g.nonzero()
    assert cell[0] == cell[2] == g.unit
    return g.unit


def _resolved_by_member_indices(f, x):
    # a subcategory's labels, which take an in-range Python int as its own index
    (i,) = _member_indices(f, [x])
    return i


@pytest.mark.parametrize(
    "x, expect",
    [
        ("0", 0), ("2", 2), (1, 1), (np.int64(2), 2), (np.int32(0), 0), (2.0, 2), (np.float64(1.0), 1),
        (True, 1), (False, 0), (np.uint8(2), 2), (np.int64(3), "label index 3 out of range"),
        ("x", "unknown label 'x'"), ("", "unknown label ''"),
        (1.5, "label index 1.5 is not an integer"), (float("inf"), "is not a finite integer"),
        (float("nan"), "is not a finite integer"), (3, "label index 3 out of range"),
        (-1, "label index -1 out of range"), (2**70, "does not fit in int64"),
        (None, "label index None is not a finite integer"),
        ([0], "label index [0] is not a finite integer"),
    ],
    ids=repr,
)
def test_index_and_from_entries_resolve_labels_alike(x, expect):
    f = FusionData(names=("0", "1", "2"), unit=0, dual=(0, 2, 1), tensor=np.zeros((3, 3, 3), int))
    outcomes = []
    for resolve in (_resolved_by_index, _resolved_by_from_entries, _resolved_by_member_indices):
        try:
            outcomes.append(resolve(f, x))
        except FusionError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    if isinstance(expect, int):
        assert outcomes[0] == expect and all(type(i) is int for i in outcomes)  # True resolves to 1
    else:
        assert expect in outcomes[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e300, 2.0**63, 0.5])
def test_non_integral_float_multiplicity_is_rejected(value):
    t = np.zeros((1, 1, 1))
    t[0, 0, 0] = value
    with pytest.raises(FusionError, match="multiplicity"):
        FusionData(names=("0",), unit=0, dual=(0,), tensor=t)


def test_integral_float_multiplicities_are_kept():
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = t[0, 1, 1] = t[1, 0, 1] = 1.0
    t[1, 1, 0] = -(2.0**63)
    assert FusionData(names=("0", "1"), unit=0, dual=(0, 1), tensor=t).tensor[1, 1, 0] == -(2**63)


@pytest.mark.parametrize(
    "dtype, value, kept",
    [(np.uint64, 2**64 - 1, False), (np.uint64, 2**63, False), (np.uint64, 2**63 - 1, True),
     (np.uint8, 255, True)],
)
def test_unsigned_multiplicities_beyond_int64_are_rejected_not_wrapped(dtype, value, kept):
    t = np.zeros((1, 1, 1), dtype=dtype)
    t[0, 0, 0] = value
    if kept:
        assert FusionData(names=("0",), unit=0, dual=(0,), tensor=t).tensor[0, 0, 0] == value
    else:
        with pytest.raises(FusionError, match=f"multiplicity {value} does not fit in int64"):
            FusionData(names=("0",), unit=0, dual=(0,), tensor=t)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"names": (), "dual": (), "tensor": np.zeros((0, 0, 0), dtype=int)}, "label set is empty"),
        ({"unit": 2}, "unit index 2 out of range"),
        ({"dual": (0,)}, "dual map is not an index map on the label set"),
        ({"dual": (0, 2)}, "dual map is not an index map on the label set"),
        ({"tensor": np.zeros((2, 2), dtype=int)}, r"multiplicity tensor has shape \(2, 2\), expected \(2, 2, 2\)"),
    ],
    ids=["empty", "unit", "short-dual", "dual-out-of-range", "tensor-shape"],
)
def test_malformed_ring_is_named(fields, message):
    z2 = z2_ring()
    ring = {"names": z2.names, "unit": z2.unit, "dual": z2.dual, "tensor": z2.tensor, **fields}
    with pytest.raises(FusionError, match=f"^{message}$"):
        FusionData(**ring)


def test_global_dim_needs_one_dimension_per_label():
    with pytest.raises(FusionError, match="^dimension vector does not match the label set$"):
        global_dim(z2_ring(), [1.0, 1.0, 1.0])
