"""Plumbing presentations of closed 3-manifolds and their quantum invariants.

A plumbing graph is a forest of framed unknots, adjacent vertices Hopf-linked.
For a coloring ``c`` the framed-link invariant is the closed contraction

    F(g; c) = prod_v theta_{c(v)}^{m_v} d(c(v))^{1 - deg(v)} * prod_{(u,v)} S'(c(u), c(v)),

the bracket sums ``prod_v d(c(v)) F(g; c)`` over all colorings, and the
Reshetikhin-Turaev invariant normalises the bracket by Gauss-sum anomaly
factors and the linking-matrix signature.  The coloring sum is evaluated as
an exact factorized contraction along the forest (identical value and
deterministic order); the coloring-space size guard ``|labels|^n`` is still
enforced as the term cap.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .fusion import DEFAULT_TOL
from .condense import CondensedData
from .modular import PremodularData, _twist_powers

__all__ = [
    "PlumbingError",
    "TermCapExceeded",
    "DEFAULT_TERM_CAP",
    "PlumbingGraph",
    "InvariantValue",
    "plumbing",
    "linking_matrix",
    "signature",
    "bracket",
    "rt_invariant",
    "kirby_moves",
    "random_forest",
    "DescentCheck",
    "bracket_descent_check",
]

DEFAULT_TERM_CAP = 10**8


class PlumbingError(ValueError):
    """Malformed plumbing graph (duplicate ids, bad edges, or a cycle)."""


class TermCapExceeded(RuntimeError):
    """The coloring space exceeds the configured term cap."""

    def __init__(self, terms: float, cap: float):
        super().__init__(f"coloring space holds {terms:.3g} terms, beyond the cap {cap:.3g}")
        self.terms = terms
        self.cap = cap


def _check_term_cap(rank: int, n: int, cap: float) -> None:
    """Refuse a coloring space of ``rank**n`` terms beyond ``cap``.

    A count too large for a float is infinite, so only an infinite cap admits it.
    """
    try:
        terms = float(rank) ** n
    except OverflowError:
        terms = math.inf
    if not terms <= cap:  # a NaN cap refuses
        raise TermCapExceeded(terms, cap)


@dataclass(frozen=True, eq=False)
class PlumbingGraph:
    """A forest of framed vertices; edges are unordered id pairs."""

    vertices: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        ids = [v for v, _ in self.vertices]
        if len(set(ids)) != len(ids):
            raise PlumbingError("duplicate vertex ids")
        known = set(ids)
        seen_edges = set()
        parent = {v: v for v in ids}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            if u not in known or v not in known:
                raise PlumbingError(f"edge ({u}, {v}) references an unknown vertex")
            if u == v:
                raise PlumbingError(f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen_edges:
                raise PlumbingError(f"duplicate edge ({u}, {v})")
            seen_edges.add(key)
            ru, rv = find(u), find(v)
            if ru == rv:
                raise PlumbingError(f"edge ({u}, {v}) closes a cycle")
            parent[ru] = rv

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.vertices)

    @cached_property
    def framings(self) -> dict[str, int]:
        return {v: m for v, m in self.vertices}

    @cached_property
    def _adjacency(self) -> dict[str, tuple[str, ...]]:
        """Each vertex's neighbours, in edge order."""
        adjacent: dict[str, list[str]] = {v: [] for v in self.ids}
        for u, v in self.edges:
            adjacent[u].append(v)
            adjacent[v].append(u)
        return {v: tuple(ns) for v, ns in adjacent.items()}

    @cached_property
    def _schedule(self) -> tuple[tuple[str, tuple[str, ...], bool], ...]:
        """Contraction order as ``(vertex, children, is_root)``, each vertex after its children.

        Each tree is rooted at its least id and the trees follow in root order;
        children are listed in id order.
        """
        schedule = []
        parent: dict[str, str | None] = {}
        for root in sorted(self.ids):
            if root in parent:
                continue
            parent[root], tree, children = None, [root], {}
            for v in tree:  # breadth first, so the reversed tree puts children first
                children[v] = tuple(sorted(w for w in self._adjacency[v] if w != parent[v]))
                parent.update(dict.fromkeys(children[v], v))
                tree.extend(children[v])
            schedule.extend((v, children[v], v == root) for v in reversed(tree))
        return tuple(schedule)

    @cached_property
    def degrees(self) -> dict[str, int]:
        return {v: len(ns) for v, ns in self._adjacency.items()}

    def neighbors(self, x: str) -> tuple[str, ...]:
        return self._adjacency.get(x, ())


def plumbing(vertices: Iterable, edges: Iterable = ()) -> PlumbingGraph:
    """Build a graph from ``(id, framing)`` pairs (or bare framings) and edges."""
    verts = []
    for i, v in enumerate(vertices):
        if isinstance(v, (int, np.integer)):
            verts.append((f"v{i}", int(v)))
        else:
            vid, m = v
            verts.append((str(vid), int(m)))
    return PlumbingGraph(tuple(verts), tuple((str(u), str(v)) for u, v in edges))


@dataclass(frozen=True)
class InvariantValue:
    """A complex invariant with its evaluation tolerance."""

    value: complex
    tolerance: float = DEFAULT_TOL

    def isclose(self, other) -> bool:
        tol = self.tolerance
        if isinstance(other, InvariantValue):
            tol = max(tol, other.tolerance)
            other = other.value
        return abs(self.value - complex(other)) <= tol

    def __complex__(self) -> complex:
        return self.value

    def __str__(self) -> str:
        return f"{self.value.real:.12g} {self.value.imag:.12g} ± {self.tolerance:g}"


def linking_matrix(g: PlumbingGraph) -> np.ndarray:
    """Framings on the diagonal, edge counts off-diagonal, in listed vertex order."""
    index = {v: i for i, v in enumerate(g.ids)}
    m = np.zeros((g.n, g.n), dtype=int)
    for v, f in g.vertices:
        m[index[v], index[v]] = f
    for u, v in g.edges:
        m[index[u], index[v]] += 1
        m[index[v], index[u]] += 1
    return m


def signature(m: np.ndarray) -> int:
    """Signature by exact rational congruence diagonalization (Sylvester).

    Floating eigensolvers are a hazard near zero eigenvalues (0-framed
    components), so the reduction runs over ``Fraction`` entries.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("linking matrix must be square")
    if not np.array_equal(m, m.T):
        raise ValueError("linking matrix must be symmetric")
    n = m.shape[0]
    a = [[Fraction(int(m[i, j])) for j in range(n)] for i in range(n)]
    pos = neg = 0
    for i in range(n):
        if a[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[i], a[swap] = a[swap], a[i]
                for row in a:
                    row[i], row[swap] = row[swap], row[i]
            else:
                j = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if j is None:
                    continue  # zero row/column contributes nothing
                for k in range(n):
                    a[i][k] += a[j][k]
                for row in a:
                    row[i] += row[j]
        p = a[i][i]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for r in range(i + 1, n):
            factor = a[r][i] / p
            if factor == 0:
                continue
            for k in range(n):
                a[r][k] -= factor * a[i][k]
            for row in a:
                row[r] -= factor * row[i]
    return pos - neg


def _forest_signature(g: PlumbingGraph) -> int:
    """``signature(linking_matrix(g))`` by leaf elimination along ``g._schedule``.

    Once its children are eliminated, a vertex carries the continued-fraction
    weight ``w_v = m_v - sum 1/w_c`` over its live children ``c``; eliminating
    it adds ``sign(w_v)`` and leaves ``-1/w_v`` for its parent.  A child of
    weight 0 spans a hyperbolic plane with its parent: the pair adds 0 and
    splits off, so the parent passes nothing on, and a further zero-weight
    child is a zero row.  Each weight is an unreduced pair of Python ints
    ``(num, den)`` with ``den > 0``, so only the sign of ``num`` is read and
    no gcd is taken; exact, and linear in the vertex count (W. Neumann,
    Trans. AMS 268, 1981).
    """
    sigma = 0
    weight: dict[str, tuple[int, int] | None] = {}  # None once split off with a zero child
    for v, children, _ in g._schedule:
        w = (g.framings[v], 1)
        for c in children:
            wc = weight.pop(c)
            if w is None or wc is None:
                continue
            (num, den), (a, b) = w, wc
            # num/den - b/a, over the positive denominator den*|a|
            if a > 0:
                w = (num * a - b * den, den * a)
            elif a < 0:
                w = (b * den - num * a, -den * a)
            else:
                w = None
        weight[v] = w
        if w is not None:
            sigma += (w[0] > 0) - (w[0] < 0)
    return sigma


# -- colored evaluation ---------------------------------------------------------


def _vertex_weights(p: PremodularData, g: PlumbingGraph) -> np.ndarray:
    """Per-color weights ``theta^m d^(2-deg)``, one row per vertex in ``g.ids`` order.

    The coloring's own ``d`` factor is folded in with the ``1 - deg`` exponent
    of the framed-link rule.
    """
    degrees = np.array([g.degrees[v] for v in g.ids], dtype=int)
    return _twist_powers(p, [m for _, m in g.vertices]) * p.dims.astype(complex) ** (2 - degrees)[:, None]


def _contract_forest(
    g: PlumbingGraph,
    weights: Mapping[str, np.ndarray],
    edge_matrix: np.ndarray,
) -> complex:
    """Sum over colorings of a forest, factorized along the trees.

    ``weights[v]`` is the per-color weight of vertex ``v`` and ``edge_matrix``
    the symmetric per-edge weight; each vertex folds in its children's
    messages in the order of ``g._schedule``, so the result is reproducible.
    """
    total = 1.0 + 0.0j
    message: dict[str, np.ndarray] = {}
    with np.errstate(over="ignore", invalid="ignore"):  # a value that is not finite is refused
        for v, children, is_root in g._schedule:
            msg = weights[v]
            for ch in children:
                msg = msg * (edge_matrix @ message.pop(ch))
            if is_root:
                total *= complex(np.sum(msg))
            else:
                message[v] = msg
    return _finite(total, g)


def _finite(value: complex, g: PlumbingGraph) -> complex:
    """``value``, or ``OverflowError`` naming the vertex count when it is not finite."""
    if not cmath.isfinite(value):
        raise OverflowError(f"the invariant of the {g.n}-vertex plumbing is not finite in floating point")
    return value


def bracket(
    p: PremodularData,
    g: PlumbingGraph,
    *,
    term_cap: float = DEFAULT_TERM_CAP,
) -> InvariantValue:
    """Sum of ``prod_v d(c(v)) * F(g; c)`` over all colorings of the forest."""
    _check_term_cap(p.rank, g.n, term_cap)
    weights = dict(zip(g.ids, _vertex_weights(p, g)))
    return InvariantValue(value=_contract_forest(g, weights, p.sprime))


def rt_invariant(
    p: PremodularData,
    g: PlumbingGraph,
    *,
    term_cap: float = DEFAULT_TERM_CAP,
    tol: float = DEFAULT_TOL,
) -> InvariantValue:
    """Reshetikhin-Turaev invariant of the presented closed 3-manifold.

    ``tau = delta_plus^sigma * D^(-sigma - n - 1) * bracket`` with ``sigma``
    the signature of the linking matrix.  Requires modular data (S'
    invertible).
    """
    if not p.sprime_invertible(tol=tol):
        raise ValueError("Reshetikhin-Turaev invariant requires modular data")
    gauss = p.gauss_sums()
    sigma = _forest_signature(g)
    br = bracket(p, g, term_cap=term_cap)
    try:
        value = gauss.delta_plus**sigma * gauss.total ** float(-sigma - g.n - 1) * br.value
    except OverflowError:  # a power of delta_plus or D beyond the float range
        value = cmath.inf
    return InvariantValue(value=_finite(value, g), tolerance=tol)


def kirby_moves(g: PlumbingGraph) -> tuple[PlumbingGraph, ...]:
    """Neighbors of a plumbing presentation under blow-ups and blow-downs.

    Moves: add or remove an isolated (+1)- or (-1)-framed vertex; add an
    ``e``-framed leaf at a vertex while shifting that vertex's framing by
    ``e``; remove such a leaf while shifting its neighbor back.  All preserve
    the presented 3-manifold (removals only apply when the pattern exists).
    """
    used = set(g.ids)
    b = next(f"b{i}" for i in range(g.n + 1) if f"b{i}" not in used)  # the least fresh id
    out = [PlumbingGraph(g.vertices + ((b, e),), g.edges) for e in (1, -1)]
    for v, m in g.vertices:
        if m in (1, -1) and g.degrees[v] == 0:
            out.append(PlumbingGraph(tuple(x for x in g.vertices if x[0] != v), g.edges))
    for v, m in g.vertices:
        for e in (1, -1):
            shifted = tuple((u, mu + e if u == v else mu) for u, mu in g.vertices)
            out.append(PlumbingGraph(shifted + ((b, e),), g.edges + ((v, b),)))
    for w, mw in g.vertices:
        if mw in (1, -1) and g.degrees[w] == 1:
            (v,) = g.neighbors(w)
            kept = tuple((u, mu - mw if u == v else mu) for u, mu in g.vertices if u != w)
            out.append(PlumbingGraph(kept, tuple(edge for edge in g.edges if w not in edge)))
    return tuple(out)


def random_forest(rng: random.Random, *, max_vertices: int = 6) -> PlumbingGraph:
    """A seeded random plumbing forest with framings in [-3, 3].

    Each vertex attaches to an earlier one or starts a tree.
    """
    n = rng.randint(0, max_vertices)
    vertices = [(f"v{i}", rng.randint(-3, 3)) for i in range(n)]
    edges = []
    for i in range(1, n):
        j = rng.randrange(i + 1)
        if j < i:
            edges.append((f"v{j}", f"v{i}"))
    return PlumbingGraph(tuple(vertices), tuple(edges))


@dataclass(frozen=True)
class DescentCheck:
    """Bracket comparison between source data and its condensation."""

    passed: bool
    source_bracket: complex
    scaled_condensed: complex
    skipped: bool = False
    reason: str = ""


def bracket_descent_check(
    p: PremodularData,
    g: PlumbingGraph,
    condensed: CondensedData,
    *,
    term_cap: float = DEFAULT_TERM_CAP,
    tol: float = 1e-8,
) -> DescentCheck:
    """Check ``bracket(p, g) = |G|^n * bracket(condensed, g)``.

    ``|G|`` is the condensing group order (the transparent part is pointed,
    so its dimension equals its order).  Skipped, and reported as such, when
    the condensation is unresolved.
    """
    if condensed.status != "unique":
        return DescentCheck(
            passed=False, source_bracket=0, scaled_condensed=0,
            skipped=True, reason=f"resolution status is {condensed.status}",
        )
    lhs = bracket(p, g, term_cap=term_cap).value
    rhs = condensed.group_order**g.n * bracket(condensed.data, g, term_cap=term_cap).value
    scale = max(1.0, abs(lhs), abs(rhs))
    return DescentCheck(passed=abs(lhs - rhs) <= tol * scale, source_bracket=lhs, scaled_condensed=rhs)
