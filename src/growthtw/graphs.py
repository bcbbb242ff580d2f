"""Immutable simple undirected graphs with dense integer vertex ids, plus
BFS primitives (layers, balls, components, eccentricities) and edge-list I/O.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

from .errors import ParseError, RangeError, StructureError


class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    Adjacency lists are strictly increasing tuples; the structure is
    immutable and hashable, so instances can be shared freely.
    """

    __slots__ = ("n", "adj", "m", "_hash")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        if n < 0:
            raise RangeError(f"vertex count must be nonnegative, got {n}")
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise RangeError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise StructureError(f"self-loop at vertex {u}")
            seen.add((u, v) if u < v else (v, u))
        neigh = [[] for _ in range(n)]
        for u, v in seen:
            neigh[u].append(v)
            neigh[v].append(u)
        self.n = n
        self.adj = tuple(tuple(sorted(a)) for a in neigh)
        self.m = len(seen)
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


@dataclass(frozen=True)
class LayerStructure:
    """BFS layering of the component of `center`: layers[i] holds the
    vertices at distance exactly i."""

    center: int
    layers: Tuple[frozenset, ...]

    @property
    def eccentricity(self) -> int:
        return len(self.layers) - 1

    @property
    def component_size(self) -> int:
        return sum(len(layer) for layer in self.layers)


def parse_edge_list(text) -> Graph:
    """Parse the edge-list format: '#' comments, header "p <n> <m>", then one
    "<u> <v>" line per edge.  Duplicate edge lines are deduplicated; the
    header's n preserves isolated vertices."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
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
            continue
        if len(parts) != 2:
            raise ParseError(f"expected edge '<u> <v>', got {raw!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {raw!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise RangeError(f"line {lineno}: endpoint of ({u},{v}) not in [0,{n})")
        if u == v:
            raise StructureError(f"line {lineno}: self-loop at vertex {u}")
        edges.add((u, v) if u < v else (v, u))
    if n is None:
        raise ParseError("missing header 'p <n> <m>'")
    if len(edges) != declared_m:
        raise ParseError(
            f"header declares {declared_m} edges but {len(edges)} distinct edges given"
        )
    return Graph(n, edges)


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


def bfs_layers(g: Graph, v: int, allowed: Optional[frozenset] = None) -> LayerStructure:
    """Exact BFS layering of v's component (within `allowed` if given)."""
    dist = bfs_distances(g, v, allowed)
    ecc = max(dist.values())
    layers = [set() for _ in range(ecc + 1)]
    for w, d in dist.items():
        layers[d].add(w)
    return LayerStructure(center=v, layers=tuple(frozenset(s) for s in layers))


def ball(g: Graph, v: int, r: int) -> frozenset:
    """B_r(v): vertices at distance at most r from v."""
    if r < 0:
        raise RangeError(f"radius must be nonnegative, got {r}")
    dist = bfs_distances(g, v)
    return frozenset(w for w, d in dist.items() if d <= r)


def eccentricity(g: Graph, v: int, allowed: Optional[frozenset] = None) -> int:
    """Eccentricity of v within its component (of the induced subgraph)."""
    return max(bfs_distances(g, v, allowed).values())


def min_eccentricity_vertex(g: Graph, X: Optional[frozenset] = None) -> int:
    """The smallest-id vertex of minimum eccentricity in g[X], each vertex's
    eccentricity taken within its component of g[X].

    Exact, with the bound pruning of Takes & Kosters ("Computing the
    eccentricity distribution of large graphs", Algorithms 2013): a BFS from
    u of eccentricity e gives ecc(v) >= max(d, e - d) for every v at
    distance d from u.  Sources are taken in order of least lower bound,
    then least id, and a vertex is dropped once its (lower bound, id) is
    above the best (eccentricity, id) found, so it can neither beat the
    best nor tie it with a smaller id."""
    X = frozenset(range(g.n)) if X is None else frozenset(X)
    if not X:
        raise RangeError("no vertex in an empty set")
    lower = dict.fromkeys(X, 0)
    candidates = set(X)
    best = (len(X), -1)
    while candidates:
        u = min(candidates, key=lambda v: (lower[v], v))
        candidates.remove(u)
        dist = bfs_distances(g, u, X)
        e = max(dist.values())
        best = min(best, (e, u))
        for v, d in dist.items():
            lower[v] = max(lower[v], d, e - d)
        candidates = {v for v in candidates if (lower[v], v) < best}
    return best[1]


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
