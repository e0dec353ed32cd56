import cmath
import math
import random
import re
import time

import numpy as np
import pytest

import premodular.plumbing as plumbing_module
from premodular import families
from premodular.condense import condense
from premodular.double_rt import tau_double
from premodular.modular import _twist_powers
from premodular.plumbing import (
    PlumbingError,
    PlumbingGraph,
    TermCapExceeded,
    _forest_signature,
    bracket,
    bracket_descent_check,
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


def colored_invariant(p, g, coloring):
    """Oracle: the framed-link invariant of one total coloring, as a literal product
    ``prod_v theta^m d^(1 - deg) * prod_(u,v) S'(c(u), c(v))``."""
    color = {v: p.fusion.index(coloring[v]) for v in g.ids}
    value = 1.0 + 0.0j
    for v, m in g.vertices:
        a = color[v]
        value *= _twist_powers(p, [m])[0, a] * p.dims[a] ** (1 - g.degrees[v])
    for u, v in g.edges:
        value *= p.sprime[color[u], color[v]]
    return value


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

    def test_edge_defects_are_reported_before_a_cycle(self):
        with pytest.raises(PlumbingError, match=r"duplicate edge \(b, a\)"):
            plumbing([("a", 0), ("b", 0), ("c", 0)], [("a", "b"), ("b", "c"), ("c", "a"), ("b", "a")])
        with pytest.raises(PlumbingError, match="unknown vertex"):
            plumbing([("a", 0), ("b", 0), ("c", 0)], [("a", "b"), ("b", "c"), ("c", "a"), ("c", "x")])

    @pytest.mark.parametrize("framing", [1.5, -0.25, math.nan, math.inf, -math.inf, "1", None, True, 1j])
    def test_framing_that_is_not_an_integer_rejected(self, framing):
        message = f"vertex a has framing {framing!r}, not an integer"
        with pytest.raises(PlumbingError, match=re.escape(message)):
            PlumbingGraph((("a", framing),), ())
        with pytest.raises(PlumbingError, match=re.escape(message)):
            plumbing([("a", framing)])
        if not isinstance(framing, str) and framing is not None:  # a bare number is a bare framing
            with pytest.raises(PlumbingError, match=re.escape(f"vertex v0 has framing {framing!r}")):
                plumbing([framing])

    def test_integral_framings_are_stored_as_python_ints(self, su2_4):
        g = plumbing([("a", 2.0), ("b", np.int64(-3)), np.int32(1), np.float32(4.0), 1e20], [("a", "b")])
        assert g.vertices == (("a", 2), ("b", -3), ("v2", 1), ("v3", 4), ("v4", 10**20))
        assert all(type(m) is int for _, m in g.vertices)
        h = PlumbingGraph((("a", 2), ("b", -3), ("v2", 1), ("v3", 4), ("v4", 10**20)), (("a", "b"),))
        assert rt_invariant(su2_4, g).value == rt_invariant(su2_4, h).value

    def test_vertex_id_that_is_not_a_string_rejected(self):
        with pytest.raises(PlumbingError, match="vertex id 1 is not a string"):
            PlumbingGraph(((1, 0), ("b", 0)), ())
        with pytest.raises(PlumbingError, match=r"vertex id \('a',\) is not a string"):
            PlumbingGraph(((("a",), 0),), ())

    def test_construction_walks_once_and_evaluation_never(self, monkeypatch):
        walks = []
        build = plumbing_module._Walk
        monkeypatch.setattr(plumbing_module, "_Walk", lambda *fields: walks.append(fields) or build(*fields))
        g = e8_plumbing()
        assert len(walks) == 1
        moves = kirby_moves(g)
        # one walk per neighbour shape: the e = +1 and -1 twins of a move share theirs
        assert len(walks) == 1 + len({(h.ids, h.edges) for h in moves}) == 10
        twins = [h for h in moves if h.n > g.n]
        assert len(twins) == 2 + 2 * g.n
        assert all(h._walk is k._walk for h, k in zip(twins[::2], twins[1::2]))
        walks.clear()
        p = families.su2(3)
        for h in (g, *moves):
            rt_invariant(p, h, term_cap=math.inf)
            tau_double(p, range(p.rank), h, term_cap=math.inf)
            bracket(p, h, term_cap=math.inf)
        assert walks == []

    def test_schedule_lists_children_before_parents_in_id_order(self):
        g = plumbing([("c", 0), ("a", 0), ("d", 0), ("b", 0), ("e", 0)], [("d", "c"), ("b", "a"), ("a", "d")])
        walk = g._walk
        assert walk.order == (0, 2, 3, 1, 4) and walk.children == ((), (3, 2), (0,), (), ())
        assert [(g.ids[v], tuple(g.ids[c] for c in walk.children[v])) for v in walk.order] == [
            ("c", ()), ("d", ("c",)), ("b", ()), ("a", ("b", "d")), ("e", ()),
        ]
        assert [g.ids[v] for v in walk.order if len(walk.children[v]) == walk.degrees[v]] == ["a", "e"]
        assert g.neighbors("a") == ("b", "d") and g.neighbors("d") == ("c", "a") and g.neighbors("x") == ()
        assert g.degrees == {"c": 1, "a": 2, "d": 2, "b": 1, "e": 0}


class TestWeightRows:
    def test_rows_past_the_limit_are_not_kept(self, monkeypatch):
        # five isolated vertices: five (framing, degree) pairs against a limit of three
        g = plumbing([("a", 1), ("b", 2), ("c", 3), ("d", -1), ("e", -2)])
        expected = rt_invariant(families.su2(4), g).value
        monkeypatch.setattr(plumbing_module, "_WEIGHT_ROW_LIMIT", 3)
        p = families.su2(4)
        for _ in range(2):
            assert rt_invariant(p, g).value == expected
            assert len(p._weight_rows) == 3

    def test_kept_rows_are_read_only(self, su2_4):
        row = plumbing_module._vertex_weights(su2_4, chain([-2, 1]))[0]
        with pytest.raises(ValueError):
            row[0] = 0

    def test_leaf_parts_past_the_limit_are_not_kept(self, monkeypatch):
        # three leaves and two isolated vertices: five (framing, degree) keys against a limit of three
        g = plumbing([("a", 0), ("b", 1), ("c", 2), ("d", 3), ("e", -1), ("f", -2)],
                     [("a", "b"), ("a", "c"), ("a", "d")])
        expected = rt_invariant(families.su2(4), g).value
        monkeypatch.setattr(plumbing_module, "_WEIGHT_ROW_LIMIT", 3)
        p = families.su2(4)
        for _ in range(2):
            assert rt_invariant(p, g).value == expected
            assert len(p._leaf_parts) == 3

    def test_kept_leaf_messages_are_read_only(self):
        # c1 is c0's leaf, framed 1: its message to c0 is kept by (1, 1)
        p = families.su2(4)
        rt_invariant(p, chain([-2, 1]))
        with pytest.raises(ValueError):
            p._leaf_parts[(1, 1)][0] = 0


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


class TestForestSignature:
    def test_e8_is_minus_eight(self):
        assert _forest_signature(e8_plumbing()) == -8

    @pytest.mark.parametrize("framing, expect", [(-2, -5000), (2, 5000), (0, 0)])
    def test_long_chains_have_closed_forms(self, framing, expect):
        g = plumbing([(f"c{i}", framing) for i in range(5000)],
                     [(f"c{i}", f"c{i + 1}") for i in range(4999)])
        start = time.perf_counter()
        assert _forest_signature(g) == expect
        assert time.perf_counter() - start < 1.0


class TestColoredInvariant:
    def test_unframed_unknot_is_dimension(self, su2_4):
        g = plumbing([("w", 0)])
        for a in range(5):
            assert colored_invariant(su2_4, g, {"w": a}) == pytest.approx(
                su2_4.dims[a], abs=1e-12
            )

    def test_hopf_link_is_sprime(self):
        p = families.su2(3)
        for a in range(4):
            for b in range(4):
                v = colored_invariant(p, HOPF, {"u": a, "v": b})
                assert abs(v - p.sprime[a, b]) < 1e-12

    def test_framed_unknot_twists(self):
        p = families.ising()
        for f in (-2, -1, 1, 3):
            g = plumbing([("w", f)])
            for a in range(3):
                expect = p.theta[a].value ** f * p.dims[a]
                assert abs(colored_invariant(p, g, {"w": a}) - expect) < 1e-12


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
            total += w * colored_invariant(p, g, coloring)
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
