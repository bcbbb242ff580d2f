"""Immutable simple undirected graphs with dense integer vertex ids, plus
BFS primitives (distances, balls, components), minors of branch sets,
edge-list I/O, and the integer checks of JSON input.

Where a graph is built, its edges are hashed and sorted as the integer
keys u * n + v, u < v: the constructor and the edge-list reader key each
well-formed pair inline, refuse a bad one with `_refuse_edge`, and fill the
adjacency from the sorted keys.
"""

from __future__ import annotations

import reprlib
from collections import deque
from typing import Iterable, Iterator, List, NoReturn, Optional, Tuple

from .errors import CapacityError, ModelError, ParseError, RangeError, StructureError

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


def _refuse_edge(u: int, v: int, n: int) -> NoReturn:
    """Refuse a pair that is no edge of a graph on 0..n-1: an end out of
    range is a RangeError, else u == v is a StructureError."""
    if not (0 <= u < n and 0 <= v < n):
        raise RangeError(f"edge ({u},{v}) out of range for n={n}")
    raise StructureError(f"self-loop at vertex {u}")


class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    Adjacency lists are strictly increasing tuples; the structure is
    immutable and hashable, so instances can be shared freely.  More than
    VERTEX_BUDGET vertices is a CapacityError.  Each pair is deduplicated
    as its integer key u * n + v, u < v, keyed inline in either
    orientation; keys order edges by their smaller end, then their larger
    one, and `divmod(key, n)` gives (u, v) back.  The first bad pair is
    refused by `_refuse_edge`.
    """

    __slots__ = ("n", "adj", "m", "_hash")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        if n < 0:
            raise RangeError(f"vertex count must be nonnegative, got {n}")
        _within_budget(n)
        self._store(n, {
            u * n + v if 0 <= u < v < n else v * n + u if 0 <= v < u < n else _refuse_edge(u, v, n)
            for u, v in edges
        })

    def _store(self, n: int, keys: set) -> None:
        """Build the adjacency from a set of well-formed edge keys.
        Sorted keys run by u, then by v, and (u, v) sorts before (v, w)
        whenever u < v, so every adjacency list fills in increasing order
        and none is sorted."""
        neigh = [[] for _ in range(n)]
        for key in sorted(keys):
            u, v = divmod(key, n)
            neigh[u].append(v)
            neigh[v].append(u)
        self.n = n
        self.adj = tuple(map(tuple, neigh))
        self.m = len(keys)
        self._hash = hash((n, self.adj))

    def edges(self) -> List[Tuple[int, int]]:
        """The edges (u, v) with u < v, sorted."""
        return [(u, v) for u, nbrs in enumerate(self.adj) for v in nbrs if u < v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self.adj[u]

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise RangeError(f"vertex {v} out of range for n={self.n}")

    def _check_vertices(self, X) -> None:
        """Refuses by name an id of X outside [0, n), asking only min and max."""
        for v in (min(X), max(X)) if X else ():
            self._check_vertex(v)

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
    with "line N: ".

    Each line is split once.  After the header, a line of two integers that
    form a valid pair is keyed as `Graph` keys it.  Every other line is
    skipped if blank or a comment, must be the header if none came before,
    and else must hold two integers that form a valid pair.  `int`
    accepts no token that starts with '#', so a two-token comment is
    skipped as a comment."""
    n = None
    declared_m = None
    keys = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if n is not None and len(parts) == 2:
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                if parts[0].startswith("#"):
                    continue
                raise ParseError(f"non-integer endpoint in {raw!r}", lineno) from None
            try:
                keys.add(
                    u * n + v if 0 <= u < v < n else v * n + u if 0 <= v < u < n
                    else _refuse_edge(u, v, n)
                )
            except (RangeError, StructureError) as exc:
                raise type(exc)(f"line {lineno}: {exc}") from None
            if len(keys) > declared_m:
                raise ParseError(
                    f"header declares {declared_m} edges but more distinct edges given", lineno
                )
            continue
        if not parts or parts[0].startswith("#"):
            continue
        if n is not None:
            raise ParseError(f"expected edge '<u> <v>', got {raw!r}", lineno)
        if parts[0] != "p" or len(parts) != 3:
            raise ParseError(f"expected header 'p <n> <m>', got {raw!r}", lineno)
        try:
            n, declared_m = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"non-integer header field in {raw!r}", lineno) from None
        if n < 0 or declared_m < 0:
            raise ParseError("negative count in header", lineno)
        _within_budget(n, declared_m)
    if n is None:
        raise ParseError("missing header 'p <n> <m>'")
    if len(keys) != declared_m:
        raise ParseError(
            f"header declares {declared_m} edges but {len(keys)} distinct edges given"
        )
    graph = Graph.__new__(Graph)
    graph._store(n, keys)
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
    """The edge-list text of g: its header, then one "<u> <v>" line per edge,
    u < v, in increasing order, read off the adjacency in one flat pass."""
    lines = [f"p {g.n} {g.m}"]
    lines += [f"{u} {v}" for u, nbrs in enumerate(g.adj) for v in nbrs if v > u]
    return "\n".join(lines) + "\n"


def components(g: Graph) -> list:
    """Connected components as sorted tuples, ordered by (size, smallest id)
    ascending, so the smallest component comes first."""
    return [tuple(sorted(comp)) for comp in components_within(g, range(g.n))]


def components_within(g: Graph, X) -> list:
    """Components of the induced subgraph g[X] as frozensets, ordered by
    (size, smallest id) ascending, so the smallest component comes first.
    X is read once as a set, so a repeated id counts once.  An id of X
    outside [0, n) is a RangeError.  It is the one helper that finds
    components and decides whether a vertex set is connected."""
    X = frozenset(X)
    g._check_vertices(X)
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


def bfs_distances(g: Graph, source: int) -> dict:
    """Distances from `source` within the whole of g; unreachable vertices
    are absent.  There is no vertex filter: the connectivity of a vertex set
    is decided by `components_within`."""
    g._check_vertex(source)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = du + 1
                queue.append(w)
    return dist


def ball(g: Graph, v: int, r: int) -> frozenset:
    """B_r(v): vertices at distance at most r from v."""
    if r < 0:
        raise RangeError(f"radius must be nonnegative, got {r}")
    dist = bfs_distances(g, v)
    return frozenset(w for w, d in dist.items() if d <= r)


def moore_gain(delta: int, steps: int, cap: int) -> int:
    """The Moore sum (delta-1) + (delta-1)**2 + ... + (delta-1)**steps, summed
    only until it reaches `cap`: steps when delta = 2, and 0 when delta <= 1
    or steps <= 0.

    This is the Moore bound: a vertex at distance i >= 1 from v has a
    neighbour at distance i - 1, so at most delta - 1 at distance i + 1, and
    a ball B_r(v), r >= 1, of `size` vertices, `level` of them at distance
    exactly r, has |B_{r+steps}(v)| <= size + level * (the full sum) in a
    graph of maximum degree `delta`.  A partial sum stops only once it
    reaches `cap`, so for level >= 1 and any target <= cap,
    size + level * moore_gain(delta, steps, cap) >= target exactly when the
    full sum passes the same test.  It runs in O(1) time for delta <= 2 and
    O(log cap) otherwise."""
    fan = delta - 1
    if fan <= 0 or steps <= 0:
        return 0
    if fan == 1:
        return steps
    gain = 0
    term = 1
    for _ in range(steps):
        if gain >= cap:
            break
        term *= fan
        gain += term
    return gain


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a vertex bitmask, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def minor(g: Graph, parts) -> Graph:
    """The minor of g whose vertex i is the i-th set of `parts`, a mapping
    from names to vertex sets, contracted; vertices in no set are deleted.
    An id outside [0, n) is a RangeError, and the first set that is empty,
    meets an earlier set or is disconnected in g a ModelError naming it.
    A set of more than one vertex is connected when `components_within`
    finds one component in it; a repeated id counts once."""
    owner = {}
    for i, (key, part) in enumerate(parts.items()):
        if not part:
            raise ModelError(f"branch set {key} is empty")
        for v in part:
            if not (0 <= v < g.n):
                raise RangeError(f"branch set {key} has out-of-range vertex {v}")
        if not owner.keys().isdisjoint(part):
            raise ModelError(f"branch set {key} overlaps another")
        owner.update(dict.fromkeys(part, i))
        if len(part) > 1 and len(components_within(g, part)) > 1:
            raise ModelError(f"branch set {key} is disconnected")
    edges = set()
    for v, i in owner.items():
        for w in g.adj[v]:
            j = owner.get(w, i)
            if j > i:
                edges.add((i, j))
    return Graph(len(parts), edges)


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.m == g.n - 1 and len(bfs_distances(g, 0)) == g.n
