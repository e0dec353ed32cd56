"""Plumbing presentations of closed 3-manifolds and their quantum invariants.

A plumbing graph is a forest of framed unknots, adjacent vertices Hopf-linked.
For a coloring ``c`` the framed-link invariant is the closed contraction

    F(g; c) = prod_v theta_{c(v)}^{m_v} d(c(v))^{1 - deg(v)} * prod_{(u,v)} S'(c(u), c(v)),

and the bracket sums ``prod_v d(c(v)) F(g; c)`` over all colorings.  As
``sum_v deg(v)`` is twice the edge count, it contracts the vertex weights
``theta^m d^2`` with ``S'(a, b) / (d_a d_b)`` on the edges, the same sum term
by term.  The Reshetikhin-Turaev invariant takes the unitary ``s = S'/D``
alike (``D`` the square root of the global dimension) and ``1/D`` per tree,
so it never forms a huge bracket times a tiny power of ``D``.  The coloring
sum is an exact factorized contraction along the forest (deterministic
order); the term cap bounds its size ``|labels|^n``.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import random
from dataclasses import dataclass, field
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
_WEIGHT_ROW_LIMIT = 1024  # vertex weight rows kept per category, by framing


class PlumbingError(ValueError):
    """Malformed plumbing graph (bad ids or framings, bad edges, or a cycle)."""


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
    """A forest of framed vertices; edges are unordered id pairs.

    Construction checks the graph and walks it once: ``ids`` lists the vertex
    ids in order and ``_walk`` is the contraction order every evaluation reads;
    ``_sigma`` is the signature of the linking matrix.
    """

    vertices: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, str], ...]
    ids: tuple[str, ...] = field(init=False, repr=False)
    _walk: "_Walk" = field(init=False, repr=False)
    _sigma: int = field(init=False, repr=False)

    def __post_init__(self):
        for v, m in self.vertices:
            if type(m) is not int or type(v) is not str:
                object.__setattr__(self, "vertices", tuple(_vertex(v, m) for v, m in self.vertices))
                break
        ids = tuple(v for v, _ in self.vertices)
        index = {v: i for i, v in enumerate(ids)}
        if len(index) != len(ids):
            raise PlumbingError("duplicate vertex ids")
        adjacent: list[list[int]] = [[] for _ in ids]
        seen_edges = set()
        for u, v in self.edges:
            if u not in index or v not in index:
                raise PlumbingError(f"edge ({u}, {v}) references an unknown vertex")
            if u == v:
                raise PlumbingError(f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen_edges:
                raise PlumbingError(f"duplicate edge ({u}, {v})")
            seen_edges.add(key)
            adjacent[index[u]].append(index[v])
            adjacent[index[v]].append(index[u])
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "_walk", _walk_forest(ids, adjacent, self.edges))
        object.__setattr__(self, "_sigma", _forest_signature(self))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def framings(self) -> dict[str, int]:
        return {v: m for v, m in self.vertices}

    @cached_property
    def degrees(self) -> dict[str, int]:
        return dict(zip(self.ids, self._walk.degrees))

    def neighbors(self, x: str) -> tuple[str, ...]:
        """The neighbours of ``x``, in edge order."""
        return tuple(v if u == x else u for u, v in self.edges if x in (u, v))


def _vertex(v, m) -> tuple[str, int]:
    """The vertex ``(v, m)`` with its framing as a Python int, or ``PlumbingError``
    when the id ``v`` is not a string or the framing ``m`` is not integral."""
    if not isinstance(v, str):
        raise PlumbingError(f"vertex id {v!r} is not a string")
    if isinstance(m, (int, np.integer)) and not isinstance(m, bool):
        return v, int(m)
    if isinstance(m, (float, np.floating)) and float(m).is_integer():
        return v, int(m)
    raise PlumbingError(f"vertex {v} has framing {m!r}, not an integer")


class _Walk(NamedTuple):
    """Contraction order of a forest, by vertex position.

    A vertex is a root when all its neighbours are children.
    """

    order: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]


def _built(vertices, edges, ids, walk, sigma) -> PlumbingGraph:
    """A ``PlumbingGraph`` with these fields, built without checks, a walk or
    leaf elimination: for graphs whose checks and signature hold by construction."""
    g = object.__new__(PlumbingGraph)
    g.__dict__.update(vertices=vertices, edges=edges, ids=ids, _walk=walk, _sigma=sigma)
    return g


def _walk_forest(ids: tuple[str, ...], adjacent: list[list[int]], edges) -> _Walk:
    """The walk of the graph with vertex ``ids`` and adjacency ``adjacent`` by
    position, which it uses up; a cycle raises ``PlumbingError`` naming its
    closing edge in ``edges``.

    Each tree is rooted at its least id and walked breadth first, children in
    id order; the trees follow in root order, and each tree is listed reversed,
    so every vertex comes after its children.
    """
    degrees = tuple(map(len, adjacent))
    order: list[int] = []
    children: list[tuple[int, ...]] = [()] * len(ids)
    seen = [False] * len(ids)
    for root in sorted(range(len(ids)), key=ids.__getitem__):
        if seen[root]:
            continue
        seen[root], tree = True, [root]
        for v in tree:  # breadth first: the loop reaches the children appended below
            kids = adjacent[v]  # all but its parent, taken out when v was reached
            for w in kids:
                if seen[w]:  # reached before, so the edge v - w closes a cycle
                    u, w = next(edge for edge in edges if set(edge) == {ids[v], ids[w]})
                    raise PlumbingError(f"edge ({u}, {w}) closes a cycle")
                seen[w] = True
                adjacent[w].remove(v)
            if kids:
                kids.sort(key=ids.__getitem__)
                children[v] = tuple(kids)
                tree += kids
        order += reversed(tree)
    return _Walk(tuple(order), tuple(children), degrees)


def plumbing(vertices: Iterable, edges: Iterable = ()) -> PlumbingGraph:
    """Build a graph from ``(id, framing)`` pairs (or bare framings) and edges."""
    verts = []
    for i, v in enumerate(vertices):
        if isinstance(v, numbers.Number):
            verts.append((f"v{i}", v))
        else:
            vid, m = v
            verts.append((str(vid), m))
    return PlumbingGraph(tuple(verts), tuple((str(u), str(v)) for u, v in edges))


@dataclass(frozen=True, init=False)
class InvariantValue:
    """A complex invariant with its evaluation tolerance."""

    value: complex
    tolerance: float = DEFAULT_TOL

    def __init__(self, value: complex, tolerance: float = DEFAULT_TOL):
        # one dict update, as CheckResult's: the generated frozen __init__
        # calls object.__setattr__ once per field
        self.__dict__.update(value=value, tolerance=tolerance)

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
    ``num / den`` with ``den > 0``, kept in two lists, so only the sign of
    ``num`` is read and no gcd is taken; exact, and linear in the vertex
    count (W. Neumann, Trans. AMS 268, 1981).
    """
    walk, vertices = g._walk, g.vertices
    children_of = walk.children
    sigma = 0
    nums = [0] * g.n
    dens = [0] * g.n  # 0 once split off with a zero child
    for v in walk.order:
        num, den = vertices[v][1], 1
        for c in children_of[v]:
            b = dens[c]
            if not (den and b):
                continue
            a = nums[c]
            # num/den - b/a, over the positive denominator den*|a|
            if a > 0:
                num, den = num * a - b * den, den * a
            elif a < 0:
                num, den = b * den - num * a, -den * a
            else:
                den = 0
        nums[v], dens[v] = num, den
        if den:
            sigma += (num > 0) - (num < 0)
    return sigma


# -- colored evaluation ---------------------------------------------------------


def _vertex_weights(p: PremodularData, framings: list[int]) -> list[np.ndarray]:
    """Per-color weights ``theta^m d^2``, one read-only row per framing ``m`` in ``framings``.

    The coloring's own ``d`` and the framed-link rule's ``d^(1 - deg)`` leave
    ``d^(-deg)``, which the edges carry (``PremodularData._contraction_bound``),
    so a row depends on its framing alone.  The rows are kept on ``p``, up to
    ``_WEIGHT_ROW_LIMIT`` of them; the missing rows of a call are computed in
    one block.
    """
    rows = p._weight_rows
    try:
        return [rows[m] for m in framings]
    except KeyError:
        pass
    missing = [m for m in dict.fromkeys(framings) if m not in rows]
    block = _twist_powers(p, missing) * p.dims**2
    block.setflags(write=False)
    fresh = dict(zip(missing, block))
    rows.update(itertools.islice(fresh.items(), max(0, _WEIGHT_ROW_LIMIT - len(rows))))
    return [fresh[m] if m in fresh else rows[m] for m in framings]


def _contract_forest(
    g: PlumbingGraph,
    weights: Sequence[np.ndarray],
    edge_matrix: np.ndarray | None,
    tree_factor: float,
    limit: float,
    memo: dict | None = None,
    framings: Sequence[int] = (),
) -> complex:
    """Sum over colorings of a forest, factorized along the trees.

    ``weights[i]`` is the per-color weight of the vertex at position ``i`` of
    ``g.ids`` and ``edge_matrix`` the symmetric per-edge weight (unread, and
    may be None, when the forest has no edges); each vertex
    folds in its children's messages in the order of ``g._walk`` and sends
    its own across the edge to its parent, so the result is reproducible.
    Each tree's sum is scaled by ``tree_factor``, part by part, in Python
    floats, so a factor of 1 leaves it bitwise as it is.  A value that is not
    finite raises ``OverflowError`` naming the vertex count.

    ``limit`` is the forest's overflow-free size on these weights and edges
    (``modular._overflow_free_size``): up to it no product or sum can leave
    the float range; a larger forest is contracted with numpy's overflow and
    invalid-value warnings off, as its value is checked at the end.

    A leaf's sent message and an isolated vertex's sum depend only on its
    framing ``framings[v]`` and on whether it is a root, when ``weights`` and
    ``edge_matrix`` come from one category: ``memo`` then keeps them by that
    pair, read-only, up to ``_WEIGHT_ROW_LIMIT`` of them, and is read before
    they are computed.
    """
    if g.n > limit:
        with np.errstate(over="ignore", invalid="ignore"):
            return _contract_forest(g, weights, edge_matrix, tree_factor, math.inf, memo, framings)
    walk = g._walk
    children_of, degrees = walk.children, walk.degrees
    total = 1.0 + 0.0j
    sent: list[np.ndarray | None] = [None] * g.n
    for v in walk.order:
        children = children_of[v]
        root = len(children) == degrees[v]
        key = part = None
        if memo is not None and not children:
            key = framings[v], root
            part = memo.get(key)
        if part is None:
            msg = weights[v]
            for ch in children:
                msg = msg * sent[ch]
            # .dot calls the same BLAS gemv as @, for about half the overhead
            part = complex(np.add.reduce(msg)) if root else edge_matrix.dot(msg)
            if key is not None and len(memo) < _WEIGHT_ROW_LIMIT:
                if not root:
                    part.setflags(write=False)
                memo[key] = part
        if root:
            total *= complex(part.real * tree_factor, part.imag * tree_factor)
        else:
            sent[v] = part
    if not cmath.isfinite(total):
        raise OverflowError(f"the invariant of the {g.n}-vertex plumbing is not finite in floating point")
    return total


def bracket(
    p: PremodularData,
    g: PlumbingGraph,
    *,
    term_cap: float = DEFAULT_TERM_CAP,
) -> InvariantValue:
    """Sum of ``prod_v d(c(v)) * F(g; c)`` over all colorings of the forest."""
    _check_term_cap(p.rank, g.n, term_cap)
    bound = p._contraction_bound
    weights = _vertex_weights(p, [m for _, m in g.vertices])
    return InvariantValue(_contract_forest(g, weights, bound.bracket_edge, 1.0, bound.size))


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
    with ``s = S'/D`` over ``d_a d_b`` on its edges; that is ``delta_plus^sigma
    D^(-sigma-n-1)`` times the bracket.  Requires modular data (S' invertible).
    """
    if not p._svd[0] > tol:  # p.sprime_invertible(tol=tol)
        raise ValueError("Reshetikhin-Turaev invariant requires modular data")
    _check_term_cap(p.rank, g.n, term_cap)
    gauss, bound, framings = p._gauss_sums, p._contraction_bound, [m for _, m in g.vertices]
    total = _contract_forest(g, _vertex_weights(p, framings), bound.rt_edge, 1 / gauss.total, bound.size,
                             p._leaf_parts, framings)
    phase = (gauss.delta_plus / gauss.total) ** g._sigma
    return InvariantValue(phase * total / gauss.total, tol)


def kirby_moves(g: PlumbingGraph) -> tuple[PlumbingGraph, ...]:
    """Neighbors of a plumbing presentation under blow-ups and blow-downs.

    Moves: add or remove an isolated (+1)- or (-1)-framed vertex; add an
    ``e``-framed leaf at a vertex while shifting that vertex's framing by
    ``e``; remove such a leaf while shifting its neighbor back.  All preserve
    the presented 3-manifold (removals only apply when the pattern exists).
    """
    ids, vertices, n, sigma = g.ids, g.vertices, g.n, g._sigma
    used = set(ids)
    b = next(f"b{i}" for i in range(n + 1) if f"b{i}" not in used)  # the least fresh id
    # Each neighbour is g's checked graph with one vertex, and at most one leaf
    # edge, added or removed, so its checks hold and it is built from g's
    # adjacency without them; the twins e = +1 and -1 of a move share one walk.
    # Adding a vertex framed e = +-1 makes the linking form congruent to L + (e),
    # so it adds e to the signature, and removing one subtracts its framing (Kirby).
    adjacent = [list(kids) for kids in g._walk.children]
    for v, kids in enumerate(g._walk.children):
        for c in kids:
            adjacent[c].append(v)

    def shifted(i: int, by: int) -> tuple[tuple[str, int], ...]:
        return vertices[:i] + ((ids[i], vertices[i][1] + by),) + vertices[i + 1:]

    def with_b(at: int | None) -> list[PlumbingGraph]:  # b framed e, isolated or a leaf at `at` shifted by e
        adj, edges, grown = [a[:] for a in adjacent] + [[]], g.edges, ids + (b,)
        if at is not None:
            adj[at].append(n)
            adj[n].append(at)
            edges += ((ids[at], b),)
        walk = _walk_forest(grown, adj, edges)
        return [_built((vertices if at is None else shifted(at, e)) + ((b, e),), edges, grown, walk, sigma + e)
                for e in (1, -1)]

    def without(j: int, framed: tuple[tuple[str, int], ...]) -> PlumbingGraph:  # `framed` less vertex j, its edges
        adj = [[u - (u > j) for u in a if u != j] for i, a in enumerate(adjacent) if i != j]
        edges, rest = tuple(edge for edge in g.edges if ids[j] not in edge), ids[:j] + ids[j + 1:]
        return _built(framed[:j] + framed[j + 1:], edges, rest, _walk_forest(rest, adj, edges),
                      sigma - vertices[j][1])

    out = with_b(None)
    out += [without(j, vertices) for j, (_, m) in enumerate(vertices) if m in (1, -1) and not adjacent[j]]
    for i in range(n):
        out += with_b(i)
    for j, (_, m) in enumerate(vertices):
        if m in (1, -1) and len(adjacent[j]) == 1:
            out.append(without(j, shifted(adjacent[j][0], -m)))
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
