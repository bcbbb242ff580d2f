"""Graph family generators: paths, cycles, stars, cliques, complete binary
trees, square grids, strong products / blow-ups, and seeded random cubic
graphs via the configuration model."""

from __future__ import annotations

import random

from .errors import CapacityError, GenerationError, RangeError
from .graphs import EDGE_BUDGET, VERTEX_BUDGET, Graph

FAMILIES = ("path", "cycle", "star", "complete", "complete_binary_tree", "grid")

# random_cubic gives up with a GenerationError after this many rejected pairings.
RANDOM_CUBIC_ATTEMPTS = 10_000


def path(k: int) -> Graph:
    _require(k >= 1, f"path needs size >= 1, got {k}")
    _within_budget(k)
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle(k: int) -> Graph:
    _require(k >= 3, f"cycle needs size >= 3, got {k}")
    _within_budget(k)
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def star(k: int) -> Graph:
    """Star on k vertices: center 0, leaves 1..k-1."""
    _require(k >= 1, f"star needs size >= 1, got {k}")
    _within_budget(k)
    return Graph(k, [(0, i) for i in range(1, k)])


def complete(k: int) -> Graph:
    _require(k >= 1, f"complete needs size >= 1, got {k}")
    _within_budget(k, k * (k - 1) // 2)
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def complete_binary_tree(k: int) -> Graph:
    """Heap-shaped binary tree on k vertices, root 0, children 2i+1, 2i+2."""
    _require(k >= 1, f"complete_binary_tree needs size >= 1, got {k}")
    _within_budget(k)
    return Graph(k, [(i, (i - 1) // 2) for i in range(1, k)])


def grid(k: int) -> Graph:
    """k x k grid, row-major numbering: (row, col) -> row*k + col."""
    _require(k >= 1, f"grid needs side >= 1, got {k}")
    _within_budget(k * k)
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1))
            if r + 1 < k:
                edges.append((v, v + k))
    return Graph(k * k, edges)


_BUILDERS = {
    "path": path,
    "cycle": cycle,
    "star": star,
    "complete": complete,
    "complete_binary_tree": complete_binary_tree,
    "grid": grid,
}


def generate(family: str, size: int) -> Graph:
    if family not in _BUILDERS:
        raise RangeError(f"unknown family {family!r}; choose from {FAMILIES}")
    return _BUILDERS[family](size)


def strong_product(g: Graph, h: Graph) -> Graph:
    """Strong product: vertex (v, w) numbered v*|V(h)| + w; (v,w)~(v',w') iff
    each coordinate is equal or adjacent and the pairs differ."""
    _require(g.n >= 1 and h.n >= 1, "strong product needs nonempty factors")
    _within_budget(g.n * h.n, g.n * h.m + g.m * h.n + 2 * g.m * h.m)
    nh = h.n
    edges = []
    h_edges = list(h.edges())
    g_edges = list(g.edges())
    for v in range(g.n):
        base = v * nh
        for w, w2 in h_edges:
            edges.append((base + w, base + w2))
    for v, v2 in g_edges:
        for w in range(nh):
            edges.append((v * nh + w, v2 * nh + w))
        for w, w2 in h_edges:
            edges.append((v * nh + w, v2 * nh + w2))
            edges.append((v * nh + w2, v2 * nh + w))
    return Graph(g.n * h.n, edges)


def blow_up(g: Graph, t: int) -> Graph:
    """Replace each vertex by K_t and each edge by K_{t,t}; equals
    strong_product(g, K_t) vertex-for-vertex."""
    _require(t >= 1, f"blow-up factor must be >= 1, got {t}")
    return strong_product(g, complete(t))


def random_cubic(n: int, seed: int) -> Graph:
    """Simple 3-regular graph on n vertices via the pairing model, rejecting
    any sample with loops or multi-edges wholesale.  Deterministic in seed."""
    if n < 4 or n % 2 != 0:
        raise RangeError(f"random cubic graph needs even n >= 4, got {n}")
    _within_budget(n)
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(3)]
    for _ in range(RANDOM_CUBIC_ATTEMPTS):
        rng.shuffle(stubs)
        pairs = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in pairs:
                ok = False
                break
            pairs.add(e)
        if ok:
            return Graph(n, pairs)
    raise GenerationError(
        f"no simple 3-regular pairing on n={n} after {RANDOM_CUBIC_ATTEMPTS} attempts"
    )


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise RangeError(message)


def _within_budget(n: int, m: int = 0) -> None:
    """Refuse n > VERTEX_BUDGET vertices as Graph does, and m > EDGE_BUDGET
    edges, before the generator builds its edge or stub list.  Only cliques
    and products pass m: every other family has fewer than 2n edges, so the
    vertex budget bounds its edges too."""
    if n > VERTEX_BUDGET:
        raise CapacityError(f"graph would have {n} vertices (budget {VERTEX_BUDGET})")
    if m > EDGE_BUDGET:
        raise CapacityError(f"graph would have {m} edges (budget {EDGE_BUDGET})")
