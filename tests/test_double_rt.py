import cmath
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from premodular import double_rt, families, plumbing as plumbing_module
from premodular.condense import MinimalityError, double_data
from premodular.double_rt import factorization_check, pairing_bracket, tau_double
from premodular.fusion import InconsistentDataError, full_subcategory
from premodular.modular import Twist, _twist_powers, centralizer, check_minimal_extension, premodular_from_twists
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
        for delta in ((4, "2", 0), ["0", "2", "4"], range(0, 5, 2), np.array([0, 2, 4]), (4, 0, 2, 2)):
            assert pairing_bracket(su2_4, delta) is pb
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

    def test_kept_pairs_are_the_read_only_support(self, su2_4):
        # sizes: floor(700 / (log |pairs| + 4 log 2)), as E = 1 and W = d_max = 2 on su2:4 to rounding
        for delta, pairs, expected_size in (([0, 2, 4], 13, 131), (range(5), 25, 116)):
            pb = pairing_bracket(su2_4, delta)
            ia, ib, size = pb._pairs
            np.testing.assert_array_equal(ia, np.nonzero(pb.support)[0])
            np.testing.assert_array_equal(ib, np.nonzero(pb.support)[1])
            assert not ia.flags.writeable and not ib.flags.writeable
            assert pb._pairs[0] is ia  # computed once per pairing
            assert (len(ia), size) == (pairs, expected_size)

    @pytest.mark.parametrize("name, delta", [("su2:4", (0, 2, 4)), ("su2:4", range(5)), ("su2:8", range(0, 9, 2))])
    def test_pairing_keeps_no_pair_by_pair_array(self, name, delta):
        # the pair edge is |pairs|^2 entries: 6,561^2 with every label of prod(su2:8,conj(su2:8))
        hat = families.builtin(name)
        tau_double(hat, delta, chain([2, -1, 3]))
        pb = pairing_bracket(hat, delta)
        limit = max(hat.rank**2, len(pb._pairs[0]))
        assert len(pb._pairs[0]) ** 2 > limit
        arrays = [x for x in [*vars(pb).values(), *pb._pairs, *vars(pb.report).values()] if isinstance(x, np.ndarray)]
        assert len(arrays) == 4 and max(a.size for a in arrays) <= limit

    def test_replaced_copy_finds_its_pairs_and_guards_every_contraction(self, su2_4):
        pb = pairing_bracket(su2_4, [0, 2, 4])
        copy = replace(pb)
        ia, ib, size = copy._pairs
        np.testing.assert_array_equal(ia, pb._pairs[0])
        np.testing.assert_array_equal(ib, pb._pairs[1])
        assert size == 0


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

    def test_a_forest_without_edges_builds_no_pair_matrix(self):
        # one vertex counts rank^2 colorings, which the term cap admits at any rank; the pair
        # matrix here would be 2401^2 complex entries, 92 MB, that the contraction never reads
        hat = families.builtin("prod(su2:6,conj(su2:6))")
        g = plumbing([("v", 3)])
        tracemalloc.start()
        try:
            value = tau_double(hat, range(hat.rank), g).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        tau = rt_invariant(hat, g).value
        assert abs(value - abs(tau) ** 2) <= 1e-9 * max(1.0, abs(value))


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
# bracket and to the double's sum, and 12**300 and 12**299 are beyond the largest float
NOT_FINITE = {
    "bracket": lambda p, g: bracket(p, g, term_cap=math.inf),
    "tau_double": lambda p, g: tau_double(p, range(p.rank), g, term_cap=math.inf),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", sorted(NOT_FINITE))
def test_value_that_is_not_finite_raises_overflow_naming_the_vertex_count(su2_4, entry):
    g = plumbing([0] * 300)
    with pytest.raises(OverflowError, match="^the invariant of the 300-vertex plumbing is not finite"):
        NOT_FINITE[entry](su2_4, g)


@pytest.mark.filterwarnings("error")
def test_isolated_vertices_give_the_connected_sum_of_spheres(su2_4):
    # each 0-framed vertex is S^2 x S^1, with invariant D; their connected sum is D^(n-1) = 2.1757e161
    value = rt_invariant(su2_4, plumbing([0] * 300), term_cap=math.inf).value
    assert value == pytest.approx(math.sqrt(12) ** 299, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_gauss_sum_power_of_450_vertices_is_finite_and_a_connected_sum():
    # sigma = 450: delta_plus**450 is beyond a complex, though the invariant itself is not
    p = families.su2(8)
    value = rt_invariant(p, plumbing([2] * 450), term_cap=math.inf).value
    assert abs(value) == pytest.approx(6.76e-67, rel=1e-3)
    # tau(g_1 ⊔ ... ⊔ g_k) = D^(k-1) * prod tau(g_i), compared in log space
    part = rt_invariant(p, plumbing([2])).value
    diff = cmath.log(value) - (449 * math.log(p.gauss_sums().total) + 450 * cmath.log(part))
    assert abs(diff.real) <= 1e-12 * 450
    assert abs(math.remainder(diff.imag, 2 * math.pi)) <= 1e-12 * 450


def hub(framing, leaf_framings):
    """A vertex ``c`` framed ``framing`` with a leaf for each of ``leaf_framings``."""
    return plumbing([("c", framing), *((f"l{i}", e) for i, e in enumerate(leaf_framings))],
                    [("c", f"l{i}") for i in range(len(leaf_framings))])


def star(leaves, framing=-2):
    return hub(framing, [framing] * leaves)


HIGH_DEGREE = {**NOT_FINITE, "rt_invariant": lambda p, g: rt_invariant(p, g, term_cap=math.inf)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", sorted(HIGH_DEGREE))
def test_high_degree_vertex_that_overflows_is_named(su2_4, entry):
    # the product of 5,000 leaf messages at the hub leaves the float range
    with pytest.raises(OverflowError, match="^the invariant of the 5001-vertex plumbing is not finite"):
        HIGH_DEGREE[entry](su2_4, star(5000))


KIRBY_RT = ("su2:4", "su2:8", "fibonacci", "ising")
KIRBY_DOUBLE = (("su2:4", (0, 2, 4)), ("su2:4", None), ("fibonacci", None), ("su2:8", (0, 2, 4, 6, 8)))


def _blow_down_deviation(evaluate, framing, leaf_framings):
    """How far a hub's value is from that of its blow-down, one vertex framed
    ``framing - sum(leaf_framings)``, relative to ``max(1, |blow-down|)``."""
    v = evaluate(plumbing([("c", framing - sum(leaf_framings))]))
    return abs(evaluate(hub(framing, leaf_framings)) - v) / max(1.0, abs(v))


def _evaluator(case):
    """``rt_invariant`` on the category named ``case``, or ``tau_double`` on a
    ``(name, subcategory)`` pair, ``None`` for the whole category."""
    if isinstance(case, str):
        p = families.builtin(case)
        return lambda g: rt_invariant(p, g, term_cap=math.inf).value
    name, delta = case
    p = families.builtin(name)
    delta = range(p.rank) if delta is None else delta
    return lambda g: tau_double(p, delta, g, term_cap=math.inf).value


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", KIRBY_RT)
@pytest.mark.parametrize("leaves", [800, 1500, 3000, 5000])
@pytest.mark.parametrize("e", [1, -1])
def test_blowing_down_the_leaves_of_a_high_degree_hub_keeps_rt_invariant(name, leaves, e):
    # L(k, 1): a 0-framed hub with k leaves framed e is one vertex framed -k e (Neumann 1981)
    assert _blow_down_deviation(_evaluator(name), 0, [e] * leaves) <= 1e-10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", KIRBY_DOUBLE, ids=lambda case: f"{case[0]}-{'all' if case[1] is None else 'even'}")
@pytest.mark.parametrize("leaves", [400, 800, 1500])
@pytest.mark.parametrize("e", [1, -1])
def test_blowing_down_the_leaves_of_a_high_degree_hub_keeps_tau_double(case, leaves, e):
    assert _blow_down_deviation(_evaluator(case), 0, [e] * leaves) <= 1e-10


@given(
    case=st.sampled_from(KIRBY_RT + KIRBY_DOUBLE),
    framing=st.integers(-3, 3),
    leaves=st.integers(300, 3000),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_blowing_down_leaves_of_mixed_signs_keeps_the_invariant(case, framing, leaves, data):
    positive = data.draw(st.integers(0, leaves), label="positive")
    signs = [1] * positive + [-1] * (leaves - positive)
    data.draw(st.randoms(use_true_random=False), label="order").shuffle(signs)
    assert _blow_down_deviation(_evaluator(case), framing, signs) <= 1e-10


@pytest.mark.filterwarnings("error")
def test_double_of_a_300_leaf_star_is_finite(su2_4):
    # the edges carry s/(d d), 1/D included; with S'/(d d) on them and dim^(-edges)
    # applied after, the product of the hub's 300 leaf messages would overflow here
    value = tau_double(su2_4, range(su2_4.rank), star(300), term_cap=math.inf).value
    assert value.real == pytest.approx(5.4313e259, rel=1e-4)


# -- the overflow-free forest size -------------------------------------------------


def yang_lee():
    """The Galois conjugate of Fibonacci: d = 1 - phi, so 1/|d| = phi sets the weight bound."""
    fib = families.fibonacci()
    dims = np.array([1.0, 1 - (1 + math.sqrt(5)) / 2])
    return premodular_from_twists(fib.fusion, [Twist.one(), Twist.from_turns(1, 5)], dims=dims)


def _categories(entry):
    """The suite categories ``entry`` takes, with the Galois conjugate of Fibonacci.

    ``bracket`` takes any data: the all-ones S' of pointed:k:0, and twice it,
    make a chain's messages grow by exactly k max|S'| per vertex, the rate
    the size allows.  ``tau_double`` refuses the conjugate, whose pairing
    d_a d_b / dim is negative.
    """
    out = [(name, p) for name, p in families.builtin_suite() if entry == "bracket" or p.sprime_invertible()]
    if entry == "bracket":
        z2 = families.builtin("pointed:2:0")
        out.append(("pointed:2:0, S' doubled", replace(z2, sprime=2 * z2.sprime)))
    return out if entry == "tau_double" else [*out, ("yang-lee", yang_lee())]


GUARDED = {
    "rt_invariant": lambda p, g: rt_invariant(p, g, term_cap=math.inf).value,
    "bracket": lambda p, g: bracket(p, g, term_cap=math.inf).value,
    "tau_double": lambda p, g: tau_double(p, range(p.rank), g, term_cap=math.inf).value,
}


def overflow_free_size(entry, p):
    """The size that ``entry`` hands the contraction for ``p``, read on a one-vertex call."""
    limits = []

    def spy(g, weights, edge_matrix, tree_factor, limit, *rest):
        limits.append(limit)
        return contract(g, weights, edge_matrix, tree_factor, limit, *rest)

    contract = plumbing_module._contract_forest
    with mock.patch.object(plumbing_module, "_contract_forest", spy), \
            mock.patch.object(double_rt, "_contract_forest", spy):
        GUARDED[entry](p, plumbing([1]))
    return limits[0]  # a forest past the size is contracted again, under the guard


@pytest.mark.parametrize("entry", sorted(GUARDED))
def test_forests_up_to_the_overflow_free_size_raise_no_float_error(entry):
    # the size is a proof, not a tuning: a hub of limit - 1 leaves, a chain and
    # isolated vertices, all of one framing, stay in float range with no guard
    for name, p in _categories(entry):
        limit = overflow_free_size(entry, p)
        assert limit >= 40, (name, limit)  # so that the forests are not trivial
        for n in (limit, limit // 2):
            for m in (-3, 0, 3, 10**18):
                for g in (star(n - 1, m), chain([m] * n), plumbing([m] * n)):
                    with np.errstate(over="raise", invalid="raise"):
                        value = GUARDED[entry](p, g)
                    assert cmath.isfinite(value), (name, n, m)


def test_overflow_free_sizes_of_rt_invariant():
    limits = {name: overflow_free_size("rt_invariant", p) for name, p in _categories("rt_invariant")}
    assert {name: limits[name] for name in ("su2:4", "su2:8", "ising", "fibonacci", "prod(fibonacci,ising)")} == {
        "su2:4": 233, "su2:8": 153, "ising": 390, "fibonacci": 422, "prod(fibonacci,ising)": 203}
    assert limits["yang-lee"] == limits["fibonacci"]
    # the edges carry the dimensions, so rt_invariant and bracket share one size
    for name, p in families.builtin_suite():
        if p.sprime_invertible():
            assert overflow_free_size("bracket", p) == limits[name], name


def test_a_complex_twist_or_a_zero_dimension_is_always_guarded():
    fib = families.fibonacci()
    complex_twists = replace(fib, theta=tuple(Twist.from_complex(t.value) for t in fib.theta))
    su2_4 = families.su2(4)
    zero = replace(su2_4, dims=np.where(np.arange(5) == 2, 0.0, su2_4.dims))
    assert overflow_free_size("rt_invariant", complex_twists) == 0
    assert overflow_free_size("bracket", zero) == 0


@pytest.mark.filterwarnings("error")
def test_a_zero_dimension_gives_no_warning():
    # a copy of su2:4 with d(2) = 0, which no category document can carry:
    # forests without edges keep their values, and an edge's 1/(d d) is not finite
    su2_4 = families.su2(4)
    zero = replace(su2_4, dims=np.where(np.arange(5) == 2, 0.0, su2_4.dims))
    weights = _twist_powers(zero, [1])[0] * zero.dims**2
    assert bracket(zero, plumbing([1])).value == pytest.approx(weights.sum(), abs=1e-12)
    assert cmath.isfinite(rt_invariant(zero, plumbing([1])).value)
    for g in (plumbing([1, -2], [("v0", "v1")]), star(3)):
        for evaluate in (rt_invariant, bracket):
            with pytest.raises(OverflowError, match=f"^the invariant of the {g.n}-vertex plumbing is not finite"):
                evaluate(zero, g)
    for g in (plumbing([1]), plumbing([1, -2], [("v0", "v1")]), star(3)):
        # the pairing refuses first: S'(0, 2) is no longer d(0) d(2)
        with pytest.raises(InconsistentDataError, match="the unit '0' is not transparent"):
            tau_double(zero, range(5), g)
