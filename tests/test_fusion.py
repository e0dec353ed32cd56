import tracemalloc

import numpy as np
import pytest

from premodular import families
from premodular.fusion import (
    ClosureError,
    FusionData,
    FusionError,
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
            top = max(np.linalg.eigvals(su2_4.fusion.fusion_matrix(a)).real)
            assert abs(d[a] - top) < 1e-9
        assert np.abs(d - su2_4.dims).max() < 1e-9


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
