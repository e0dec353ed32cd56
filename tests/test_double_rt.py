import math
import random
from fractions import Fraction

import numpy as np
import pytest

from premodular import families
from premodular.condense import MinimalityError, double_data
from premodular.double_rt import factorization_check, pairing_bracket, tau_double
from premodular.fusion import full_subcategory
from premodular.modular import centralizer, check_minimal_extension
from premodular.plumbing import (
    TermCapExceeded,
    bracket,
    kirby_moves,
    plumbing,
    random_forest,
    rt_invariant,
)


def chain(framings):
    verts = [(f"c{i}", m) for i, m in enumerate(framings)]
    edges = [(f"c{i}", f"c{i+1}") for i in range(len(framings) - 1)]
    return plumbing(verts, edges)


HOPF = plumbing([("u", 0), ("v", 0)], [("u", "v")])


class TestPairingBracket:
    def test_worked_entries(self, su2_4):
        pb = pairing_bracket(su2_4, [0, 2, 4])
        assert pb.table[0, 0] == pytest.approx(1 / 12, abs=1e-12)
        assert pb.table[1, 1] == pytest.approx(1 / 4, abs=1e-12)
        assert pb.table[0, 1] == 0.0

    def test_symmetry_and_positivity(self, su2_4):
        pb = pairing_bracket(su2_4, [0, 2, 4])
        assert np.abs(pb.table - pb.table.T).max() < 1e-12
        assert pb.table.min() >= 0.0

    def test_support_values_follow_grading(self, su2_4):
        pb = pairing_bracket(su2_4, [0, 2, 4])
        for a in range(5):
            for b in range(5):
                if (a + b) % 2 == 0:
                    expect = su2_4.dims[a] * su2_4.dims[b] / 12.0
                    assert pb.table[a, b] == pytest.approx(expect, abs=1e-12)
                    assert pb.support[a, b]
                else:
                    assert pb.table[a, b] == 0.0 and not pb.support[a, b]

    def test_requires_minimal_extension(self, su2_4):
        with pytest.raises(MinimalityError, match="minimal"):
            pairing_bracket(su2_4, [0])

    def test_kept_per_subcategory_and_read_only(self, su2_4):
        pb = pairing_bracket(su2_4, [0, 2, 4])
        assert pairing_bracket(su2_4, (4, "2", 0)) is pb
        assert pairing_bracket(su2_4, [0, 2, 4], tol=1e-8) is not pb
        with pytest.raises(ValueError):
            pb.table[0, 0] = 1.0
        with pytest.raises(ValueError):
            pb.support[0, 1] = True

    def test_failure_raises_on_every_call(self):
        hat = families.su2(4)
        for _ in range(3):
            with pytest.raises(MinimalityError, match=r"^extension is not minimal: centralizer \['0', '1', '2', '3', '4'\] differs"):
                pairing_bracket(hat, [0])
        assert not hat._pairings


class TestTauDouble:
    def test_empty_graph_gives_inverse_subdimension(self, su2_4):
        v = tau_double(su2_4, [0, 2, 4], plumbing([])).value
        assert v == pytest.approx(1 / 6, abs=1e-12)
        hat = families.su2(3)
        v = tau_double(hat, range(4), plumbing([])).value
        assert v == pytest.approx(1 / hat.total_dim, abs=1e-12)

    def test_zero_framed_unknot_whole_category(self):
        # |tau(S^2 x S^1)|^2 = 1
        hat = families.su2(3)
        v = tau_double(hat, range(4), plumbing([0])).value
        assert v == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_extension_is_refused(self):
        # the dimension identity fails too (dim 8 != 8 * 2); the error names the singular S'
        hat = families.builtin("prod(su2:2,pointed:2:0)")
        with pytest.raises(MinimalityError, match="extension is degenerate: S' is singular"):
            tau_double(hat, range(hat.rank), plumbing([1]))

    def test_term_cap_guard(self, su2_4):
        with pytest.raises(TermCapExceeded):
            tau_double(su2_4, [0, 2, 4], chain([0, 0, 0]), term_cap=100)

    def test_term_cap_refuses_a_count_beyond_float_range(self, su2_4):
        # 5**(2 * 221) overflows a float; 220 vertices still give a finite count
        with pytest.raises(TermCapExceeded, match="inf terms"):
            tau_double(su2_4, [0, 2, 4], chain([-2] * 221))
        with pytest.raises(TermCapExceeded) as err:
            tau_double(su2_4, [0, 2, 4], chain([-2] * 220))
        assert err.value.terms == pytest.approx(5.0**440)


class TestFactorization:
    @pytest.mark.parametrize("p_framing", range(1, 8))
    def test_su2_3_lens_spaces(self, p_framing):
        r = factorization_check(families.su2(3), plumbing([p_framing]))
        assert r.passed

    def test_ising_e8(self):
        vertices = [(f"a{i}", -2) for i in range(8)]
        edges = [("a0", "a1"), ("a1", "a2"), ("a2", "a3"), ("a3", "a4"),
                 ("a4", "a5"), ("a5", "a6"), ("a4", "a7")]
        r = factorization_check(families.ising(), plumbing(vertices, edges))
        assert r.passed

    def test_fibonacci_chain(self):
        r = factorization_check(families.fibonacci(), chain([-2, -2, -2]))
        assert r.passed


class TestCrossPipeline:
    def test_double_invariant_matches_double_data(self, su2_4):
        dd = double_data(su2_4, [0, 2, 4])
        assert dd.status == "unique"
        for g in (plumbing([]), plumbing([1]), plumbing([-1]), HOPF, chain([-2, -2, -2])):
            lhs = tau_double(su2_4, [0, 2, 4], g).value
            rhs = rt_invariant(dd.data, g).value
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_tau_double_kirby_invariance_sample(self, su2_4):
        rng = random.Random(23)
        for _ in range(6):
            g = random_forest(rng, max_vertices=3)
            base = tau_double(su2_4, [0, 2, 4], g).value
            for h in kirby_moves(g):
                dev = abs(tau_double(su2_4, [0, 2, 4], h).value - base)
                assert dev <= 1e-8 * max(1.0, abs(base))


class TestToricCode:
    """Rep(Z2) in the double semion: its group acts freely on R, so the double
    resolves, and it is the toric code."""

    DS = families.builtin("prod(pointed:2:1,pointed:2:3)")
    DELTA = ["(0,0)", "(1,1)"]

    def test_double_is_the_toric_code(self):
        dd = double_data(self.DS, self.DELTA)
        assert dd.status == "unique"
        assert dd.data.rank == 4 and dd.data.total_dim == pytest.approx(4.0, abs=1e-12)
        assert sorted(t.turns for t in dd.data.theta) == [0, 0, 0, Fraction(1, 2)]

    def test_tau_double_is_the_toric_code_invariant(self):
        toric = double_data(self.DS, self.DELTA).data
        rng = random.Random(16)
        for _ in range(100):
            g = random_forest(rng)
            lhs = tau_double(self.DS, self.DELTA, g).value
            rhs = rt_invariant(toric, g).value
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestSecondExtension:
    def test_su2_8_even_subcategory_normalisation(self):
        hat = families.su2(8)
        evens = [0, 2, 4, 6, 8]
        dim_sub = float(np.sum(hat.dims[evens] ** 2))
        v = tau_double(hat, evens, plumbing([])).value
        assert v == pytest.approx(1 / dim_sub, abs=1e-10)

    def test_su2_8_move_invariance_sample(self):
        hat = families.su2(8)
        evens = [0, 2, 4, 6, 8]
        rng = random.Random(9)
        for _ in range(2):
            g = random_forest(rng, max_vertices=3)
            base = tau_double(hat, evens, g).value
            for h in kirby_moves(g):
                dev = abs(tau_double(hat, evens, h).value - base)
                assert dev <= 1e-8 * max(1.0, abs(base))


SUBCATEGORY_ENTRY_POINTS = {
    "restrict": lambda p, sub: p.restrict(sub).sprime,
    "centralizer": lambda p, sub: centralizer(p, sub),
    "check_minimal_extension": lambda p, sub: vars(check_minimal_extension(p, sub)),
    "pairing_bracket": lambda p, sub: vars(pairing_bracket(p, sub)),
    "tau_double": lambda p, sub: tau_double(p, sub, HOPF).value,
    "double_data": lambda p, sub: [s.sprime for s in double_data(p, sub).solutions],
}


@pytest.mark.parametrize("entry", sorted(SUBCATEGORY_ENTRY_POINTS))
def test_label_list_and_selection_give_identical_results(su2_4, entry):
    fn = SUBCATEGORY_ENTRY_POINTS[entry]
    selection = full_subcategory(su2_4.fusion, [0, 2, 4])
    assert full_subcategory(su2_4.fusion, selection) is selection
    np.testing.assert_equal(fn(su2_4, selection), fn(su2_4, [0, 2, 4]))


# 300 isolated 0-framed vertices on su2:4: every vertex contributes dim = 12 to the
# bracket and to the double's sum, and 12**300 is beyond the largest float
NOT_FINITE = {
    "bracket": lambda p, g: bracket(p, g, term_cap=math.inf),
    "rt_invariant": lambda p, g: rt_invariant(p, g, term_cap=math.inf),
    "tau_double": lambda p, g: tau_double(p, range(p.rank), g, term_cap=math.inf),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", sorted(NOT_FINITE))
def test_value_that_is_not_finite_raises_overflow_naming_the_vertex_count(su2_4, entry):
    g = plumbing([0] * 300)
    with pytest.raises(OverflowError, match="^the invariant of the 300-vertex plumbing is not finite"):
        NOT_FINITE[entry](su2_4, g)


@pytest.mark.filterwarnings("error")
def test_overflowing_gauss_sum_power_raises_overflow_naming_the_vertex_count():
    # sigma = 450: delta_plus**450 is beyond a complex, though the invariant itself is not
    g = plumbing([2] * 450)
    with pytest.raises(OverflowError, match="^the invariant of the 450-vertex plumbing is not finite"):
        rt_invariant(families.su2(8), g, term_cap=math.inf)
