"""Immutable simple undirected graphs with dense integer vertex ids, plus
BFS primitives (distances, balls, components), edge-list I/O, and the
integer checks of JSON input.
"""

from __future__ import annotations

import math
import reprlib
from collections import deque
from typing import Iterable, Iterator, Optional, Tuple

from .errors import CapacityError, ParseError, RangeError, StructureError

# Largest vertex count of any graph.  A larger n is refused before n
# adjacency lists are allocated, so a short header cannot exhaust memory.
VERTEX_BUDGET = 2_000_000
# Largest edge count that a generator builds or an edge-list header declares,
# refused before the edges are allocated.  Average degree 4 fits, so paths,
# trees, grids and cubic graphs reach the vertex budget.
EDGE_BUDGET = 2 * VERTEX_BUDGET


def _within_budget(n: int, m: int = 0) -> None:
    """Refuse n > VERTEX_BUDGET vertices and m > EDGE_BUDGET edges with a
    CapacityError, before anything of that size is allocated.  The
    generators call it before building their edge or stub lists; only
    cliques and products pass m, since every other family has fewer than 2n
    edges."""
    if n > VERTEX_BUDGET:
        raise CapacityError(f"graph would have {n} vertices (budget {VERTEX_BUDGET})")
    if m > EDGE_BUDGET:
        raise CapacityError(f"graph would have {m} edges (budget {EDGE_BUDGET})")


def _edge(u: int, v: int, n: int) -> Tuple[int, int]:
    """The one edge rule of a graph on 0..n-1: (u, v) as (min, max) if
    0 <= min < max < n; an end out of range is a RangeError, else u == v
    is a StructureError."""
    if 0 <= u < v < n:
        return (u, v)
    if 0 <= v < u < n:
        return (v, u)
    if not (0 <= u < n and 0 <= v < n):
        raise RangeError(f"edge ({u},{v}) out of range for n={n}")
    raise StructureError(f"self-loop at vertex {u}")


class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    Adjacency lists are strictly increasing tuples; the structure is
    immutable and hashable, so instances can be shared freely.  More than
    VERTEX_BUDGET vertices is a CapacityError.
    """

    __slots__ = ("n", "adj", "m", "_hash")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        if n < 0:
            raise RangeError(f"vertex count must be nonnegative, got {n}")
        _within_budget(n)
        self._store(n, {_edge(u, v, n) for u, v in edges})

    def _store(self, n: int, edges: set) -> None:
        """Build the adjacency from a set of edges that passed `_edge`."""
        neigh = [[] for _ in range(n)]
        for u, v in edges:
            neigh[u].append(v)
            neigh[v].append(u)
        for a in neigh:
            a.sort()
        self.n = n
        self.adj = tuple(map(tuple, neigh))
        self.m = len(edges)
        self._hash = hash((n, self.adj))

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield edges (u, v) with u < v, sorted."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise RangeError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other):
        if isinstance(other, Graph):
            return self.n == other.n and self.adj == other.adj
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def parse_edge_list(text) -> Graph:
    """Parse the edge-list format: '#' comments, header "p <n> <m>", then one
    "<u> <v>" line per edge.  Duplicate edge lines are deduplicated; the
    header's n preserves isolated vertices.  Reading stops at the first
    distinct edge past the header's m.  A header past the vertex or edge
    budget is a CapacityError before any edge line is read.  An edge that
    breaks the rule of `Graph` raises the same error, its message prefixed
    with "line N: "."""
    n = None
    declared_m = None
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "p" or len(parts) != 3:
                raise ParseError(f"expected header 'p <n> <m>', got {raw!r}", lineno)
            try:
                n, declared_m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"non-integer header field in {raw!r}", lineno) from None
            if n < 0 or declared_m < 0:
                raise ParseError("negative count in header", lineno)
            _within_budget(n, declared_m)
            continue
        if len(parts) != 2:
            raise ParseError(f"expected edge '<u> <v>', got {raw!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {raw!r}", lineno) from None
        try:
            edges.add(_edge(u, v, n))
        except (RangeError, StructureError) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        if len(edges) > declared_m:
            raise ParseError(
                f"header declares {declared_m} edges but more distinct edges given", lineno
            )
    if n is None:
        raise ParseError("missing header 'p <n> <m>'")
    if len(edges) != declared_m:
        raise ParseError(
            f"header declares {declared_m} edges but {len(edges)} distinct edges given"
        )
    graph = Graph.__new__(Graph)
    graph._store(n, edges)
    return graph


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer.  Floats, strings and booleans are a
    ParseError, so that no caller truncates 1.5 to 1 or reads true as 1."""
    if type(value) is not int:
        raise ParseError(f"malformed {what}: {reprlib.repr(value)} is not an integer")
    return value


def json_ints(values, what: str, length: Optional[int] = None) -> list:
    """`values` if it is a JSON array of integers, of exactly `length` of
    them when given; anything else is a ParseError."""
    if type(values) is not list or length not in (None, len(values)):
        shape = "a list" if length is None else f"a list of {length}"
        raise ParseError(f"malformed {what}: {reprlib.repr(values)} is not {shape}")
    for value in values:
        json_int(value, what)
    return values


def serialize_edge_list(g: Graph) -> str:
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def components(g: Graph) -> list:
    """Connected components as sorted tuples, ordered by (size, smallest id)
    ascending, so the smallest component comes first."""
    return [tuple(sorted(comp)) for comp in components_within(g, range(g.n))]


def components_within(g: Graph, X) -> list:
    """Components of the induced subgraph g[X] as frozensets, ordered by
    (size, smallest id) ascending, so the smallest component comes first."""
    X = frozenset(X)
    seen = set()
    comps = []
    for start in X:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if w in X and w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    comps.sort(key=lambda comp: (len(comp), min(comp)))
    return comps


def bfs_distances(g: Graph, source: int, allowed: Optional[frozenset] = None) -> dict:
    """Distances from `source` within g (optionally restricted to the induced
    subgraph on `allowed`).  Unreachable vertices are absent."""
    g._check_vertex(source)
    if allowed is not None and source not in allowed:
        raise RangeError(f"source {source} not in the allowed set")
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in g.adj[u]:
            if w not in dist and (allowed is None or w in allowed):
                dist[w] = du + 1
                queue.append(w)
    return dist


def ball(g: Graph, v: int, r: int) -> frozenset:
    """B_r(v): vertices at distance at most r from v."""
    if r < 0:
        raise RangeError(f"radius must be nonnegative, got {r}")
    dist = bfs_distances(g, v)
    return frozenset(w for w, d in dist.items() if d <= r)


def moore_steps(delta: int, size: int, level: int, target: int):
    """Least j >= 0 such that a ball B_r(v), r >= 1, of `size` vertices,
    `level` of them at distance exactly r, may reach `target` vertices by
    radius r + j in a graph of maximum degree `delta`; math.inf if it never
    can.

    This is the Moore bound: a vertex at distance i >= 1 from v has a
    neighbour at distance i - 1, so at most delta - 1 at distance i + 1, and
    |B_{r+j}(v)| <= size + level * ((delta-1) + ... + (delta-1)**j).  It
    runs in O(1) time for delta <= 2 and O(log target) otherwise."""
    if size >= target:
        return 0
    fan = delta - 1
    if fan <= 0 or level == 0:
        return math.inf
    if fan == 1:
        return -(-(target - size) // level)
    steps = 0
    while size < target:
        level *= fan
        size += level
        steps += 1
    return steps


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a vertex bitmask, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def is_connected(g: Graph, vertices: Optional[frozenset] = None) -> bool:
    if vertices is None:
        return g.n <= 1 or len(bfs_distances(g, 0)) == g.n
    if len(vertices) <= 1:
        return True
    start = next(iter(vertices))
    return len(bfs_distances(g, start, frozenset(vertices))) == len(vertices)


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.m == g.n - 1 and is_connected(g)
