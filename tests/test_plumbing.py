import cmath
import math
import random

import numpy as np
import pytest

from premodular import families
from premodular.condense import condense
from premodular.plumbing import (
    PlumbingError,
    TermCapExceeded,
    bracket,
    bracket_descent_check,
    colored_invariant,
    kirby_moves,
    linking_matrix,
    plumbing,
    random_forest,
    rt_invariant,
    signature,
)


def e8_plumbing():
    # central vertex a4 with arms of lengths 4, 2, 1; all framings -2
    vertices = [(f"a{i}", -2) for i in range(8)]
    edges = [("a0", "a1"), ("a1", "a2"), ("a2", "a3"), ("a3", "a4"),
             ("a4", "a5"), ("a5", "a6"), ("a4", "a7")]
    return plumbing(vertices, edges)


def chain(framings):
    verts = [(f"c{i}", m) for i, m in enumerate(framings)]
    edges = [(f"c{i}", f"c{i+1}") for i in range(len(framings) - 1)]
    return plumbing(verts, edges)


def star_sum(framings, copies):
    """Disjoint union of ``copies`` 3-vertex stars: a connected sum of 3-manifolds."""
    a, b, c = framings
    vertices, edges = [], []
    for k in range(copies):
        vertices += [(f"c{k}", a), (f"l{k}", b), (f"r{k}", c)]
        edges += [(f"c{k}", f"l{k}"), (f"c{k}", f"r{k}")]
    return plumbing(vertices, edges)


HOPF = plumbing([("u", 0), ("v", 0)], [("u", "v")])


class TestPlumbingGraph:
    def test_cycle_rejected(self):
        with pytest.raises(PlumbingError, match="cycle"):
            plumbing([("a", 0), ("b", 0), ("c", 0)], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_duplicate_id_rejected(self):
        with pytest.raises(PlumbingError, match="duplicate vertex"):
            plumbing([("a", 0), ("a", 1)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(PlumbingError, match="unknown vertex"):
            plumbing([("a", 0)], [("a", "b")])

    def test_self_loop_and_double_edge_rejected(self):
        with pytest.raises(PlumbingError, match="self-loop"):
            plumbing([("a", 0)], [("a", "a")])
        with pytest.raises(PlumbingError, match="duplicate edge"):
            plumbing([("a", 0), ("b", 0)], [("a", "b"), ("b", "a")])

    def test_schedule_lists_children_before_parents_in_id_order(self):
        g = plumbing([("c", 0), ("a", 0), ("d", 0), ("b", 0), ("e", 0)], [("d", "c"), ("b", "a"), ("a", "d")])
        assert g._schedule == (
            ("c", (), False), ("d", ("c",), False), ("b", (), False), ("a", ("b", "d"), True), ("e", (), True),
        )
        assert g.neighbors("a") == ("b", "d") and g.neighbors("d") == ("c", "a") and g.neighbors("x") == ()
        assert g.degrees == {"c": 1, "a": 2, "d": 2, "b": 1, "e": 0}


class TestLinkingMatrix:
    def test_single_vertex(self):
        assert linking_matrix(plumbing([5])).tolist() == [[5]]

    def test_edge_pair(self):
        g = plumbing([("x", 2), ("y", -3)], [("x", "y")])
        assert linking_matrix(g).tolist() == [[2, 1], [1, -3]]

    def test_three_chain_tridiagonal(self):
        m = linking_matrix(chain([-2, -2, -2]))
        assert m.tolist() == [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]


class TestSignature:
    def test_single_entries(self):
        assert signature(np.array([[7]])) == 1
        assert signature(np.array([[-4]])) == -1
        assert signature(np.array([[0]])) == 0

    def test_hyperbolic_plane(self):
        assert signature(np.array([[0, 1], [1, 0]])) == 0

    def test_e8_is_minus_eight(self):
        assert signature(linking_matrix(e8_plumbing())) == -8

    def test_agrees_with_floating_eigenvalues(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            m = rng.integers(-4, 5, size=(n, n))
            m = m + m.T
            eig = np.linalg.eigvalsh(m.astype(float))
            expect = int(np.sum(eig > 1e-9)) - int(np.sum(eig < -1e-9))
            assert signature(m) == expect

    def test_zero_heavy_matrices(self):
        assert signature(np.zeros((3, 3), dtype=int)) == 0
        assert signature(np.array([[0, 2], [2, 0]])) == 0
        assert signature(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 3]])) == 1


class TestColoredInvariant:
    def test_unframed_unknot_is_dimension(self, su2_4):
        g = plumbing([("w", 0)])
        for a in range(5):
            assert colored_invariant(su2_4, g, {"w": a}).value == pytest.approx(
                su2_4.dims[a], abs=1e-12
            )

    def test_hopf_link_is_sprime(self):
        p = families.su2(3)
        for a in range(4):
            for b in range(4):
                v = colored_invariant(p, HOPF, {"u": a, "v": b}).value
                assert abs(v - p.sprime[a, b]) < 1e-12

    def test_framed_unknot_twists(self):
        p = families.ising()
        for f in (-2, -1, 1, 3):
            g = plumbing([("w", f)])
            for a in range(3):
                expect = p.theta[a].power(f) * p.dims[a]
                assert abs(colored_invariant(p, g, {"w": a}).value - expect) < 1e-12


class TestBracket:
    def test_empty_graph(self):
        assert bracket(families.ising(), plumbing([])).value == pytest.approx(1.0)

    def test_zero_framed_unknot_gives_global_dim(self, suite):
        g = plumbing([0])
        for name, p in suite:
            assert bracket(p, g).value == pytest.approx(p.total_dim, abs=1e-9), name

    def test_plus_one_unknot_gives_gauss_sum(self, suite):
        g = plumbing([1])
        for name, p in suite:
            gs = p.gauss_sums()
            assert bracket(p, g).value == pytest.approx(gs.delta_minus, abs=1e-9), name
        gm = plumbing([-1])
        for name, p in suite:
            gs = p.gauss_sums()
            assert bracket(p, gm).value == pytest.approx(gs.delta_plus, abs=1e-9), name

    def test_vertex_order_irrelevant(self):
        p = families.su2(3)
        g1 = plumbing([("a", 2), ("b", -1), ("c", 0)], [("a", "b"), ("b", "c")])
        g2 = plumbing([("c", 0), ("a", 2), ("b", -1)], [("b", "c"), ("a", "b")])
        assert abs(bracket(p, g1).value - bracket(p, g2).value) < 1e-12

    def test_term_cap_refusal_reports_size(self):
        p = families.su2(8)
        with pytest.raises(TermCapExceeded) as err:
            bracket(p, chain([0, 0, 0]), term_cap=100)
        assert err.value.terms == pytest.approx(9**3)

    def test_nan_term_cap_refuses(self):
        with pytest.raises(TermCapExceeded):
            bracket(families.su2(8), chain([0, 0, 0]), term_cap=math.nan)

    def test_term_cap_refuses_a_count_beyond_float_range(self):
        # 5**450 overflows a float; the count is infinite, not an OverflowError
        with pytest.raises(TermCapExceeded, match="inf terms") as err:
            bracket(families.su2(4), star_sum((-2, -1, -3), 150))
        assert err.value.terms == math.inf

    def test_matches_direct_enumeration(self):
        # oracle: literal sum over all colorings
        p = families.ising()
        g = chain([1, -2, 0])
        total = 0j
        import itertools

        for colors in itertools.product(range(3), repeat=3):
            coloring = {f"c{i}": c for i, c in enumerate(colors)}
            w = np.prod([p.dims[c] for c in colors])
            total += w * colored_invariant(p, g, coloring).value
        assert abs(bracket(p, g).value - total) < 1e-10


class TestRTInvariant:
    def test_sphere_three_presentations(self, suite):
        for name, p in suite:
            if not p.sprime_invertible():
                continue
            d_inv = 1.0 / np.sqrt(p.total_dim)
            for g in (plumbing([]), plumbing([1]), plumbing([-1])):
                assert rt_invariant(p, g).value == pytest.approx(d_inv, abs=1e-9), name

    def test_s2_x_s1(self, suite):
        g = plumbing([0])
        for name, p in suite:
            if not p.sprime_invertible():
                continue
            assert rt_invariant(p, g).value == pytest.approx(1.0, abs=1e-9), name

    def test_requires_modular_data(self, even_su2_4):
        with pytest.raises(ValueError, match="modular"):
            rt_invariant(even_su2_4, plumbing([]))

    def test_connected_sum_normalisation(self):
        for name in ("su2:3", "ising"):
            p = families.builtin(name)
            d = np.sqrt(p.total_dim)
            pair = plumbing([("x", 2), ("y", 3)])
            t_pair = rt_invariant(p, pair).value
            t_x = rt_invariant(p, plumbing([2])).value
            t_y = rt_invariant(p, plumbing([3])).value
            assert abs(t_pair - d * t_x * t_y) < 1e-10

    def test_connected_sum_beyond_float_count(self):
        # tau(G_1 + ... + G_k) = D^(k-1) prod tau(G_i), compared in log space
        p = families.su2(4)
        star = rt_invariant(p, star_sum((-2, -1, -3), 1)).value
        total = rt_invariant(p, star_sum((-2, -1, -3), 150), term_cap=math.inf).value
        expected = 149 * math.log(p.gauss_sums().total) + 150 * cmath.log(star)
        diff = cmath.log(total) - expected
        assert abs(diff.real) < 1e-8 * abs(expected.real)
        assert abs(math.remainder(diff.imag, 2 * math.pi)) < 1e-8


class TestKirbyMoves:
    def test_empty_graph_neighbors(self):
        out = kirby_moves(plumbing([]))
        framings = sorted(g.vertices[0][1] for g in out)
        assert len(out) == 2 and framings == [-1, 1]

    def test_isolated_blow_down_available(self):
        g = plumbing([("w", 1)])
        assert any(h.n == 0 for h in kirby_moves(g))

    def test_leaf_blow_up_shifts_center(self):
        g = plumbing([("w", 0)])
        leafed = [h for h in kirby_moves(g) if h.n == 2 and h.edges]
        shifts = sorted((h.framings["w"], [m for v, m in h.vertices if v != "w"][0]) for h in leafed)
        assert shifts == [(-1, -1), (1, 1)]

    def test_leaf_blow_down_inverse(self):
        g = plumbing([("w", 3), ("leaf", 1)], [("w", "leaf")])
        down = [h for h in kirby_moves(g) if h.n == 1]
        assert down and down[0].framings["w"] == 2

    def test_invariance_for_several_categories(self):
        rng = random.Random(5)
        for name in ("pointed:2:1", "su2:2", "fibonacci"):
            p = families.builtin(name)
            for _ in range(12):
                g = random_forest(rng, max_vertices=5)
                base = rt_invariant(p, g).value
                for h in kirby_moves(g):
                    assert abs(rt_invariant(p, h).value - base) <= 1e-8 * max(1, abs(base))


class TestBracketDescent:
    def test_su2_4_even_part_graphs(self, even_su2_4):
        c = condense(even_su2_4)
        for g in (HOPF, plumbing([1]), plumbing([-1]), chain([-2, -2, -2]), plumbing([])):
            r = bracket_descent_check(even_su2_4, g, c)
            assert r.passed and not r.skipped

    def test_skip_when_resolution_not_unique(self, even_su2_4):
        # two fixed orbits: the sheets are not resolved
        p = families.product(even_su2_4, families.fibonacci())
        c = condense(p)
        assert c.status == "unresolved"
        r = bracket_descent_check(p, HOPF, c)
        assert r.skipped and not r.passed and "unresolved" in r.reason


class TestInvariantValue:
    def test_comparisons_use_max_tolerance(self):
        from premodular.plumbing import InvariantValue

        a = InvariantValue(1.0 + 0j, tolerance=1e-9)
        b = InvariantValue(1.0 + 5e-7j, tolerance=1e-6)
        assert a.isclose(b) and b.isclose(a)
        c = InvariantValue(1.0 + 5e-7j, tolerance=1e-9)
        assert not a.isclose(c)
        assert a.isclose(1.0 + 1e-10j)

    def test_string_form(self):
        from premodular.plumbing import InvariantValue

        s = str(InvariantValue(0.25 - 0.5j, tolerance=1e-8))
        assert s == "0.25 -0.5 ± 1e-08"

    def test_partial_coloring_rejected(self, su2_4):
        with pytest.raises(PlumbingError, match="not total"):
            colored_invariant(su2_4, HOPF, {"u": 0})
