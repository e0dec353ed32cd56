"""Plumbing presentations of closed 3-manifolds and their quantum invariants.

A plumbing graph is a forest of framed unknots, adjacent vertices Hopf-linked.
For a coloring ``c`` the framed-link invariant is the closed contraction

    F(g; c) = prod_v theta_{c(v)}^{m_v} d(c(v))^{1 - deg(v)} * prod_{(u,v)} S'(c(u), c(v)),

and the bracket sums ``prod_v d(c(v)) F(g; c)`` over all colorings.  The
Reshetikhin-Turaev invariant contracts the same vertex weights with the
unitary ``s = S'/D`` on the edges (``D`` the square root of the global
dimension) and ``1/D`` per tree, so it never forms a huge bracket times a
tiny power of ``D`` (see ``rt_invariant``).  The coloring sum is an exact
factorized contraction along the forest (deterministic order); the
coloring-space size guard ``|labels|^n`` is still enforced as the term cap.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

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
_WEIGHT_ROW_LIMIT = 1024  # vertex weight rows kept per category, by (framing, degree)


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
    def _walk(self) -> "_Walk":
        """The contraction order and each vertex's children, by position in ``ids``.

        Each tree is rooted at its least id and walked breadth first, children
        in id order; the trees follow in root order, and each tree is listed
        reversed, so every vertex comes after its children.
        """
        ids = self.ids
        index = {v: i for i, v in enumerate(ids)}
        adjacent: list[list[int]] = [[] for _ in ids]
        for u, v in self.edges:
            adjacent[index[u]].append(index[v])
            adjacent[index[v]].append(index[u])
        order: list[int] = []
        children: list[tuple[int, ...]] = [()] * len(ids)
        seen = [False] * len(ids)
        for root in map(index.__getitem__, sorted(ids)):
            if seen[root]:
                continue
            seen[root], tree = True, [root]
            for v in tree:  # breadth first: the loop reaches the children appended below
                kids = [w for w in adjacent[v] if not seen[w]]  # in a forest, all but the parent
                if kids:
                    kids.sort(key=ids.__getitem__)
                    for w in kids:
                        seen[w] = True
                    children[v] = tuple(kids)
                    tree += kids
            order += reversed(tree)
        return _Walk(tuple(order), tuple(children), tuple(map(len, adjacent)))

    @cached_property
    def degrees(self) -> dict[str, int]:
        return dict(zip(self.ids, self._walk.degrees))

    def neighbors(self, x: str) -> tuple[str, ...]:
        """The neighbours of ``x``, in edge order."""
        return tuple(v if u == x else u for u, v in self.edges if x in (u, v))


class _Walk(NamedTuple):
    """Contraction order of a forest, by vertex position.

    A vertex is a root when all its neighbours are children.
    """

    order: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]


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
    """``signature(linking_matrix(g))`` by leaf elimination along ``g._walk``.

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
    walk = g._walk
    sigma = 0
    weight: list[tuple[int, int] | None] = [None] * g.n  # None once split off with a zero child
    for v in walk.order:
        w = (g.vertices[v][1], 1)
        for c in walk.children[v]:
            wc = weight[c]
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


def _vertex_weights(p: PremodularData, g: PlumbingGraph) -> list[np.ndarray]:
    """Per-color weights ``theta^m d^(2-deg)``, one read-only row per vertex in ``g.ids`` order.

    The coloring's own ``d`` factor is folded in with the ``1 - deg`` exponent
    of the framed-link rule.  A row depends on ``(m, deg)`` alone, so the rows
    are kept on ``p``, up to ``_WEIGHT_ROW_LIMIT`` of them; the missing rows of
    a call are computed in one block.
    """
    keys = list(zip([m for _, m in g.vertices], g._walk.degrees))
    rows = p._weight_rows
    try:
        return [rows[k] for k in keys]
    except KeyError:
        pass
    missing = [k for k in dict.fromkeys(keys) if k not in rows]
    framings, degrees = zip(*missing)
    block = _twist_powers(p, framings) * p.dims.astype(complex) ** (2 - np.array(degrees))[:, None]
    block.setflags(write=False)
    fresh = dict(zip(missing, block))
    rows.update(itertools.islice(fresh.items(), max(0, _WEIGHT_ROW_LIMIT - len(rows))))
    return [fresh[k] if k in fresh else rows[k] for k in keys]


def _contract_forest(
    g: PlumbingGraph,
    weights: Sequence[np.ndarray],
    edge_matrix: np.ndarray | None,
    tree_factor: float,
) -> complex:
    """Sum over colorings of a forest, factorized along the trees.

    ``weights[i]`` is the per-color weight of the vertex at position ``i`` of
    ``g.ids`` and ``edge_matrix`` the symmetric per-edge weight (unread, and
    may be None, when the forest has no edges); each vertex
    folds in its children's messages in the order of ``g._walk``, so the
    result is reproducible.  Each tree's sum is scaled by ``tree_factor``,
    part by part, so a factor of 1 leaves it bitwise as it is.
    """
    walk = g._walk
    total = 1.0 + 0.0j
    message: list[np.ndarray | None] = [None] * g.n
    with np.errstate(over="ignore", invalid="ignore"):  # a value that is not finite is refused
        for v in walk.order:
            msg = weights[v]
            children = walk.children[v]
            for ch in children:
                msg = msg * (edge_matrix @ message[ch])
            if len(children) == walk.degrees[v]:  # a root
                tree = complex(msg.sum())
                total *= complex(tree.real * tree_factor, tree.imag * tree_factor)
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
    return InvariantValue(value=_contract_forest(g, _vertex_weights(p, g), p.sprime, 1.0))


def rt_invariant(
    p: PremodularData,
    g: PlumbingGraph,
    *,
    term_cap: float = DEFAULT_TERM_CAP,
    tol: float = DEFAULT_TOL,
) -> InvariantValue:
    """Reshetikhin-Turaev invariant of the presented closed 3-manifold.

    ``tau = (delta_plus/D)^sigma * D^(-1) * prod_T (Z_T / D)``, with ``sigma``
    the signature of the linking matrix and ``Z_T`` tree ``T``'s contraction
    with ``s = S'/D`` on its edges; that is ``delta_plus^sigma D^(-sigma-n-1)``
    times the bracket.  Requires modular data (S' invertible).
    """
    if not p.sprime_invertible(tol=tol):
        raise ValueError("Reshetikhin-Turaev invariant requires modular data")
    _check_term_cap(p.rank, g.n, term_cap)
    gauss = p.gauss_sums()
    total = _contract_forest(g, _vertex_weights(p, g), p._s, 1 / gauss.total)
    phase = (gauss.delta_plus / gauss.total) ** _forest_signature(g)
    return InvariantValue(value=phase * total / gauss.total, tolerance=tol)


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
