import cmath
import warnings

import numpy as np
import pytest

from premodular import families
from premodular.fusion import ClosureError, FusionError, full_subcategory
from premodular.modular import (
    PremodularData,
    PremodularityError,
    Twist,
    centralizer,
    check_minimal_extension,
    is_modular,
    muger_center,
    premodular_from_twists,
    sprime_from_balancing,
    verify_premodular,
    verlinde_multiplicities,
    _balanced_sprime,
)


class TestTwist:
    def test_rational_powers_are_exact(self):
        t = Twist.from_turns(1, 3)
        assert (t.turns * -2) % 1 == t.turns
        assert cmath.exp(2j * cmath.pi * ((t.turns * -2) % 1)) == pytest.approx(
            cmath.exp(2j * cmath.pi / 3), abs=1e-15
        )
        assert (t * t * t).value == pytest.approx(1.0, abs=1e-15)
        assert t.conjugate().value == pytest.approx(t.value.conjugate(), abs=1e-15)

    def test_non_unit_modulus_rejected(self):
        with pytest.raises(PremodularityError):
            Twist.from_complex(2.0)

    @pytest.mark.parametrize("z", [complex("nan"), complex(1, float("nan")), complex("inf"), complex(0, float("-inf"))])
    def test_non_finite_value_rejected(self, z):
        with pytest.raises(PremodularityError, match=r"is not finite"):
            Twist.from_complex(z)

    def test_nan_twist_is_named_by_its_label(self):
        f = families.ising().fusion
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PremodularityError, match=r"^theta of 'sigma': twist \(nan\+0j\) is not finite$"):
                premodular_from_twists(f, {"1": 1, "sigma": complex("nan"), "eps": -1})


class TestBalancing:
    def test_unit_row_is_dimension_vector(self, suite):
        for name, p in suite:
            assert np.abs(p.sprime[p.unit] - p.dims).max() < 1e-12, name

    def test_fibonacci_hopf_value(self):
        # oracle: e^{-8 pi i/5} (1 + phi e^{4 pi i/5})
        phi = (1 + np.sqrt(5)) / 2
        expect = cmath.exp(-8j * cmath.pi / 5) * (1 + phi * cmath.exp(4j * cmath.pi / 5))
        p = families.fibonacci()
        assert abs(p.sprime[1, 1] - expect) < 1e-12
        assert abs(p.sprime[1, 1] - (-1.0)) < 1e-12

    def test_semion_hopf_value(self):
        p = families.semion()
        assert abs(p.sprime[1, 1] - (1 / 1j**2)) < 1e-12

    @pytest.mark.parametrize("k", range(1, 7))
    def test_su2_matches_sine_formula(self, k):
        p = families.su2(k)
        oracle = np.array(
            [
                [np.sin((a + 1) * (b + 1) * np.pi / (k + 2)) / np.sin(np.pi / (k + 2))
                 for b in range(k + 1)]
                for a in range(k + 1)
            ]
        )
        assert np.abs(p.sprime - oracle).max() < 1e-11

    def test_unrealisable_twists_rejected(self):
        fib = families.fibonacci().fusion
        with pytest.raises(PremodularityError, match="row multiplicativity"):
            sprime_from_balancing(fib, np.array([1.0, (1 + np.sqrt(5)) / 2]), [Twist.one(), Twist.from_turns(1, 4)])
        z2 = families.semion().fusion
        with pytest.raises(PremodularityError):
            sprime_from_balancing(z2, np.ones(2), [Twist.one(), Twist.from_turns(1, 6)])

    @pytest.mark.filterwarnings("error")
    def test_zero_dimensions_fail_row_multiplicativity(self):
        # 0/0 in the check must reject the data, not pass a NaN residual with a warning
        p = families.ising()
        with pytest.raises(PremodularityError, match="row multiplicativity"):
            sprime_from_balancing(p.fusion, np.zeros(3), p.theta)

    def test_unrealisable_supplied_sprime_is_checked_on_what_the_data_adopts(self):
        # twists and S' that fail both checks: S' is compared first, so the message names it
        fib = families.fibonacci()
        theta = [Twist.one(), Twist.from_turns(1, 4)]
        with pytest.raises(PremodularityError, match="deviates"):
            premodular_from_twists(fib.fusion, theta, dims=fib.dims, sprime=fib.sprime)

    def test_callers_arrays_stay_writable_and_unshared(self):
        p = families.ising()
        dims, sp = p.dims.copy(), p.sprime.copy()
        results = [
            PremodularData(fusion=p.fusion, dims=dims, theta=p.theta, sprime=sp),
            premodular_from_twists(p.fusion, p.theta, dims=dims, sprime=sp),
            sprime_from_balancing(p.fusion, dims, p.theta),
        ]
        for r in results:
            for own in (r.dims, r.sprime) if isinstance(r, PremodularData) else (r,):
                assert not own.flags.writeable
                assert not np.shares_memory(own, dims) and not np.shares_memory(own, sp)
        assert dims.flags.writeable and sp.flags.writeable
        dims[0] = sp[0, 0] = 7.0
        assert results[0].dims[0] == 1.0 and results[0].sprime[0, 0] == 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "field, value", [("dims", np.nan), ("dims", -np.inf), ("sprime", np.nan), ("sprime", complex(0, np.inf))]
    )
    def test_non_finite_arrays_rejected_by_name(self, field, value):
        p = families.ising()
        arrays = {"dims": p.dims.copy(), "sprime": p.sprime.copy()}
        arrays[field][1] = value
        with pytest.raises(PremodularityError, match=f"^{field} must be finite$"):
            PremodularData(fusion=p.fusion, theta=p.theta, **arrays)

    def test_explicit_sprime_cross_validated(self):
        p = families.su2(2)
        ok = premodular_from_twists(p.fusion, p.theta, dims=p.dims, sprime=p.sprime)
        assert np.abs(ok.sprime - p.sprime).max() == 0
        bad = p.sprime.copy()
        bad[1, 1] += 0.3
        with pytest.raises(PremodularityError, match="deviates"):
            premodular_from_twists(p.fusion, p.theta, dims=p.dims, sprime=bad)


class TestVerifyPremodular:
    def test_su2_3_passes(self):
        report = verify_premodular(families.su2(3))
        assert report.passed
        assert max(c.residual for c in report.checks) < 1e-9

    def test_pointed_z3_quadratic_form_passes(self):
        assert verify_premodular(families.pointed_cyclic(3, 2)).passed

    def test_bad_twist_fails_with_residual(self):
        # theta_tau = i on the Fibonacci ring is not realisable
        fib = families.fibonacci().fusion
        d = np.array([1.0, (1 + np.sqrt(5)) / 2])
        theta = (Twist.one(), Twist.from_turns(1, 4))
        th = np.array([t.value for t in theta])
        sp = _balanced_sprime(fib.tensor.astype(float), list(fib.dual), th, d)
        p = PremodularData(fusion=fib, dims=d, theta=theta, sprime=sp)
        report = verify_premodular(p)
        assert not report.passed
        bad = report["sprime:row_multiplicative"]
        assert not bad.passed and bad.residual > 1e-3

    @pytest.mark.parametrize("name", ["fibonacci", "ising", "su2:4", "pointed:4:2", "prod(su2:2,conj(su2:3))"])
    @pytest.mark.parametrize("shift", [0.0, 1e-12], ids=["balanced", "shifted"])
    def test_assembled_and_constructed_data_report_alike(self, name, shift):
        p = families.builtin(name)
        sp = p.sprime + shift  # a supplied S' within tolerance of the balancing one
        assembled = premodular_from_twists(p.fusion, p.theta, dims=p.dims, sprime=sp)
        built = PremodularData(fusion=p.fusion, dims=p.dims, theta=p.theta, sprime=sp)
        # assembly hands on its balanced S' and twist values; the constructor leaves both to be computed
        handed = ("_balanced", "theta_values")
        assert set(handed) <= vars(assembled).keys() and not set(handed) & vars(built).keys()
        for attr in handed:
            value = getattr(assembled, attr)
            assert not value.flags.writeable
            assert value.tobytes() == getattr(built, attr).tobytes()
        with pytest.raises(ValueError):
            assembled._balanced[0, 0] = 0.0
        bits = [[(c.name, c.passed, c.witness, repr(c.residual)) for c in verify_premodular(q)] for q in (assembled, built)]
        assert bits[0] == bits[1]


class TestIsModular:
    def test_su2_4_relations(self, su2_4):
        r = is_modular(su2_4)
        assert r.modular and r.residual < 1e-9
        n = su2_4.rank
        assert np.abs(r.s @ r.s.conj().T - np.eye(n)).max() < 1e-9
        st = r.s @ r.t
        assert np.abs(st @ st @ st - r.c).max() < 1e-9

    def test_integer_spin_part_not_modular(self, even_su2_4):
        r = is_modular(even_su2_4)
        assert not r.modular
        assert r.kernel is not None
        # rank 2: rows of the unit and the simple current coincide
        sv = np.linalg.svd(even_su2_4.sprime, compute_uv=False)
        assert sv[2] < 1e-9 * sv[0] and sv[1] > 1e-3

    @pytest.mark.filterwarnings("error")
    def test_zero_sprime_is_singular_without_a_warning(self):
        p = families.ising()
        zero = PremodularData(fusion=p.fusion, dims=p.dims, theta=p.theta, sprime=np.zeros((3, 3)))
        assert not zero.sprime_invertible()
        r = is_modular(zero)
        assert not r.modular and r.singular_ratio == 0.0

    @pytest.mark.parametrize("labels", [None, [0, 2, 4]], ids=["modular", "degenerate"])
    def test_verify_and_is_modular_share_one_svd(self, monkeypatch, labels):
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
        p = families.su2(4).restrict(labels if labels else range(5))  # a fresh instance
        verify_premodular(p)
        r = is_modular(p)
        centralizer(p, [0])
        assert len(calls) == 1
        assert r.modular == (labels is None)

    def test_trivial_category(self):
        r = is_modular(families.trivial())
        assert r.modular
        assert np.allclose(r.s, [[1.0]]) and np.allclose(np.abs(r.t), [[1.0]])

    def test_modular_builtins_relations(self, suite):
        for name, p in suite:
            r = is_modular(p)
            if r.modular:
                assert r.residual < 1e-9, name


class TestVerlinde:
    def test_reconstruction_matches_stored_tensor(self, suite):
        for name, p in suite:
            r = is_modular(p)
            if not r.modular:
                continue
            nver = verlinde_multiplicities(r.s, p.unit)
            assert np.abs(nver - p.fusion.tensor).max() < 1e-6, name


class TestGaussSums:
    def test_identity_on_modular_builtins(self, suite):
        for name, p in suite:
            if not p.sprime_invertible():
                continue
            g = p.gauss_sums()
            assert abs(g.delta_plus * g.delta_minus - g.dim) < 1e-9 * g.dim, name
            assert abs(abs(g.delta_plus) - g.total) < 1e-9 * g.total, name

    def test_degenerate_data_skips_gauss(self, even_su2_4):
        report = verify_premodular(even_su2_4)
        assert report.passed
        assert report["gauss:product"].witness == "skipped: S' singular"


class TestDataShapes:
    @pytest.mark.parametrize("field", ["dims", "theta", "sprime"])
    def test_field_of_another_size_is_rejected(self, field):
        p = families.su2(2)
        fields = {"fusion": p.fusion, "dims": p.dims, "theta": p.theta, "sprime": p.sprime}
        fields[field] = getattr(families.su2(1), field)
        with pytest.raises(PremodularityError, match="^field shapes do not match the label set$"):
            PremodularData(**fields)

    def test_unit_twist_must_be_1(self):
        p = families.ising()
        with pytest.raises(PremodularityError, match="^unit twist must be 1$"):
            premodular_from_twists(p.fusion, [-1.0, *p.theta[1:]])


class TestMugerCenter:
    def test_su2_4_center_trivial(self, su2_4):
        assert muger_center(su2_4).degenerate == (0,)

    def test_integer_spins_center(self, even_su2_4):
        c = muger_center(even_su2_4)
        # restricted labels (0, 2) are the source labels 0 and 4
        assert c.degenerate == (0, 2)
        assert c.is_even and c.is_pointed
        assert c.group_table.tolist() == [[0, 1], [1, 0]]

    def test_semion_center_trivial(self):
        assert muger_center(families.semion()).degenerate == (0,)


class TestCentralizer:
    def test_whole_category_gives_center(self, su2_4):
        whole = full_subcategory(su2_4.fusion, range(su2_4.rank))
        assert centralizer(su2_4, whole) == muger_center(su2_4).degenerate

    def test_unit_gives_everything(self, su2_4):
        assert centralizer(su2_4, [0]) == tuple(range(su2_4.rank))

    def test_integer_spins(self, su2_4):
        cent = centralizer(su2_4, [0, 2, 4])
        assert cent == (0, 4)
        assert float(np.sum(su2_4.dims[list(cent)] ** 2)) == pytest.approx(2.0, abs=1e-9)

    def test_antitone(self, su2_4):
        small = set(centralizer(su2_4, [0, 2, 4]))
        big = set(centralizer(su2_4, [0, 4]))
        assert small <= big

    def test_product_diagonal(self, su2_4):
        prod = families.product(su2_4, families.conjugate(su2_4))
        cent = centralizer(prod, [0, 4 * 5 + 4])
        assert len(cent) == 13
        assert float(np.sum(prod.dims[list(cent)] ** 2)) == pytest.approx(72.0, abs=1e-8)

    def test_product_of_modular_with_conjugate_has_trivial_center(self):
        for name in ("su2:3", "ising"):
            p = families.builtin(name)
            prod = families.product(p, families.conjugate(p))
            assert muger_center(prod).degenerate == (prod.unit,)

    def test_selection_of_another_ring_is_a_closure_error(self, su2_4):
        # su2:2's {0, 2} is not closed in su2:4, where 2 x 2 = 0 + 2 + 4
        foreign = full_subcategory(families.su2(2).fusion, [0, 2])
        with pytest.raises(ClosureError, match=r"at \(2, 2, 4\)"):
            centralizer(su2_4, foreign)


class TestLabelSets:
    def test_restrict_checks_a_selection_of_another_ring(self, su2_4):
        foreign = full_subcategory(families.su2(2).fusion, [0, 2])
        with pytest.raises(ClosureError) as err:
            su2_4.restrict(foreign)
        assert err.value.triple == ("2", "2", "4")

    @pytest.mark.parametrize("perm", [[1, 0], [0, 0, 1], [0, 1, 3], [0, 1, 2, 2], [0.0, 1.0, 2.0]])
    def test_relabelled_requires_a_permutation(self, perm):
        # [1, 0] on su2:2 used to drop label 2 and the 1 x 1 -> 2 channel with it
        with pytest.raises(FusionError, match="not a permutation"):
            families.su2(2).relabelled(perm)


class TestMinimalExtension:
    def test_su2_4_integer_spins_minimal(self, su2_4):
        r = check_minimal_extension(su2_4, [0, 2, 4])
        assert r.minimal and r.dim_identity_ok
        assert r.dim_total == pytest.approx(12.0, abs=1e-9)
        assert r.dim_sub == pytest.approx(6.0, abs=1e-9)
        assert r.dim_center == pytest.approx(2.0, abs=1e-9)
        assert r.center_even and r.center_pointed

    def test_whole_category_minimal_with_trivial_center(self, su2_4):
        r = check_minimal_extension(su2_4, range(5))
        assert r.passed and r.degenerate_labels == (0,)

    def test_su2_2_even_part_fails_evenness(self):
        p = families.su2(2)
        r = check_minimal_extension(p, [0, 2])
        # the set equality and dimension identity hold, but the transparent
        # part carries twist -1, so the condensation pipeline must reject it
        assert set(r.centralizer_labels) == {0, 2} == set(r.degenerate_labels)
        assert r.dim_identity_ok
        assert not r.center_even
        assert abs(p.theta_values[2] - (-1.0)) < 1e-12


class TestBuiltins:
    def test_su2_1_twist(self):
        p = families.su2(1)
        assert p.rank == 2
        assert np.allclose(p.dims, [1.0, 1.0])
        assert abs(p.theta_values[1] - 1j) < 1e-12

    def test_su2_4_twists(self, su2_4):
        assert abs(su2_4.theta_values[4] - 1.0) < 1e-12
        assert abs(su2_4.theta_values[2] - cmath.exp(2j * cmath.pi / 3)) < 1e-12

    def test_pointed_2_1_is_semion(self):
        p = families.pointed_cyclic(2, 1)
        assert abs(p.theta_values[1] - 1j) < 1e-12
        assert abs(p.sprime[1, 1] + 1.0) < 1e-12

    def test_conjugate_su2_3_still_verifies(self):
        p = families.builtin("conj(su2:3)")
        assert verify_premodular(p).passed
        q = families.su2(3)
        assert np.abs(p.sprime - q.sprime.conj()).max() < 1e-12
        assert all(abs(a.value - b.value.conjugate()) < 1e-12 for a, b in zip(p.theta, q.theta))

    def test_inadmissible_quadratic_exponent(self):
        with pytest.raises(ValueError, match="inadmissible"):
            families.pointed_cyclic(3, 1)

    @pytest.mark.parametrize("build, message", [
        (lambda: families.pointed_cyclic(0, 0), "order must be >= 1, got 0"),
        (lambda: families.builtin("pointed:3"), "pointed requires order and exponent, e.g. pointed:3:2"),
    ], ids=["order-0", "no-exponent"])
    def test_pointed_parameters_are_named(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            families.su2(0)
        with pytest.raises(ValueError):
            families.builtin("su2")
        with pytest.raises(ValueError):
            families.builtin("prod(su2:2)")

    @pytest.mark.parametrize("expr", [
        "prod(ising,ising", "conj(ising)x", "conj(ising)(x)", "su2:4)", "conj(ising,ising)",
        "prod(ising,ising,ising)", "sqrt(ising)", "(ising)", "prod()",
    ])
    def test_malformed_expression_raises(self, expr):
        with pytest.raises(ValueError):
            families.builtin(expr)

    def test_expression_blanks_and_nesting(self):
        p = families.builtin(" prod( su2:4 , conj(prod(fibonacci,ising)) ) ")
        q = families.product(families.su2(4), families.product(families.fibonacci(), families.ising()).conjugate())
        assert p.names == q.names
        assert np.array_equal(p.sprime, q.sprime)


class TestDegenerateRows:
    def test_integer_spin_rows_of_transparent_pair_coincide(self, even_su2_4):
        # the unit row and the simple-current row of S' are equal, so the
        # restricted matrix has rank 2
        assert np.abs(even_su2_4.sprime[0] - even_su2_4.sprime[2]).max() < 1e-12
