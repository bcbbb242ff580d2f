"""Growth function f_G(r) and the growth constant.

f_G(r) is the largest vertex count of a subgraph of radius at most r.  The
fast path computes f_G(r) as max_v |B_r(v)|: the induced subgraph on a ball
B_r(v) has radius at most r (shortest paths from v stay inside the ball),
and conversely any subgraph H of radius <= r centered at w has
V(H) <= B_r(w) since distances in G are at most distances in H.  The
brute-force oracle below validates this reduction by exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from typing import Callable, Optional, Tuple

from .errors import CapacityError, PreconditionError, RangeError
from .graphs import VERTEX_BUDGET, Graph, moore_gain

# Exhaustive enumeration refuses beyond these sizes.
BRUTE_FORCE_VERTEX_BUDGET = 16
BRUTE_FORCE_EDGE_SUBSET_BUDGET = 14

# growth_constant grows all balls at once as bitmasks only up to this many
# vertices: two generations of n masks of n bits each take at most 64 MiB.
SWEEP_VERTEX_LIMIT = 1 << 14
# growth_profile grows all balls at once only up to this many vertices, where
# a ball fits in 32 64-bit words.  Per radius, the sweep pays deg(v) ORs of
# ceil(n/64) words for every vertex v, and a BFS pays for every vertex it
# reaches, scanning that vertex's edges.  Both pay in proportion to the
# edges and run at most min(r_max, n) radii, so m and r_max scale the two
# alike and the word count decides.  The sweep's worst case is a path-like
# graph, where a source reaches only about 2 vertices per radius.  Measured
# raw on a shared 2-vCPU host with Python 3.11, on path(n) at r_max = n // 3
# the sweep took 0.73, 0.67, 1.06 and 1.08 times the BFS's time at n = 1024,
# 2048, 3072 and 4096 (16, 32, 48 and 64 words), and 2.5 times on the host
# subdivision of path(6) (n = 8749, 137 words, r_max = 2915: 43.2 s swept
# against 17.1 s by BFS).
PROFILE_SWEEP_LIMIT = 2048


@dataclass(frozen=True)
class GrowthProfile:
    """f(1), ..., f(r_max) plus the exact growth constant
    c = max_{1<=r<=min(r_max,n)} f(r)/r and the smallest radius attaining it."""

    values: Tuple[int, ...]
    growth_constant: Fraction
    argmax_radius: int

    def f(self, r: int) -> int:
        if not (1 <= r <= len(self.values)):
            raise RangeError(f"r={r} outside computed range [1,{len(self.values)}]")
        return self.values[r - 1]


def _ball_sizes(adj, v: int, seen: list):
    """Yield (|B_r(v)|, number of vertices at distance exactly r) for
    r = 1, 2, ... by level-synchronous BFS, stopping once the ball holds v's
    whole component.  `seen` is a visit-stamp list shared across sources:
    seen[w] == v marks w as reached from v, so it is never cleared."""
    seen[v] = v
    frontier = [v]
    size = 1
    while True:
        level = []
        for u in frontier:
            for w in adj[u]:
                if seen[w] != v:
                    seen[w] = v
                    level.append(w)
        if not level:
            return
        size += len(level)
        yield size, len(level)
        frontier = level


def growth_profile(g: Graph, r_max: int) -> GrowthProfile:
    """f(r) = max_v |B_r(v)| for r in [1, r_max], with the growth constant
    maximised over r in [1, min(r_max, n)].  Up to PROFILE_SWEEP_LIMIT
    vertices, all balls grow together in `_ball_rounds`, one per class of
    closed twins, and f(r) is the largest bit count over the classes of
    round r; otherwise one source per class (`_twin_sources`) runs its BFS
    (`_ball_sizes`) to radius r_max or its whole component.  r_max past
    VERTEX_BUDGET is a CapacityError."""
    if g.n == 0:
        raise PreconditionError("growth is undefined for the empty graph")
    if r_max < 1:
        raise RangeError(f"r_max must be >= 1, got {r_max}")
    # Refused before the list of r_max + 1 entries is allocated.
    if r_max > VERTEX_BUDGET:
        raise CapacityError(f"growth profile refuses r_max={r_max} (budget {VERTEX_BUDGET})")
    # largest[r] = max_v |B_r(v)| over the balls still growing at r: every
    # ball while the sweep runs, the sources not yet done by BFS.  A ball
    # that stopped growing at an earlier radius e holds at most largest[e],
    # and f never shrinks, so f(r) is the running maximum of largest[1..r].
    largest = [1] * (r_max + 1)
    if g.n <= PROFILE_SWEEP_LIMIT:
        for r, balls in zip(range(1, r_max + 1), _ball_rounds(g.adj)):
            largest[r] = max(map(int.bit_count, balls))
    else:
        seen = [-1] * g.n
        for v in _twin_sources(g.adj, range(g.n)):
            for r, (size, _) in zip(range(1, r_max + 1), _ball_sizes(g.adj, v, seen)):
                if size > largest[r]:
                    largest[r] = size
    values = tuple(accumulate(largest[1:], max))
    # max keeps the first of equal ratios: the smallest radius attaining c.
    r = max(range(1, min(r_max, g.n) + 1), key=lambda r: Fraction(values[r - 1], r))
    return GrowthProfile(values, Fraction(values[r - 1], r), r)


def growth_constant(g: Graph) -> Fraction:
    """Exact c_G = max_v max_r |B_r(v)|/r.  The best ratio starts at
    f(1)/1 = max degree + 1, and each source v leaves the search after the
    first radius r at which its ball is its whole component or `_threshold`
    says that no later radius can beat the best.

    Radius 1 is decided from degrees alone: |B_1(v)| = deg(v) + 1 with
    deg(v) vertices at distance 1, and no such ball beats the starting
    best, so one threshold is tested once per degree.  Closed twins,
    vertices u, v with N[u] = N[v], have B_r(u) = B_r(v) at every r >= 1
    (by induction: B_1(u) = N[u], and B_{r+1}(x) is the union of B_r(w)
    over w in N[x]), so they offer the same ratios and only one source per
    class is searched.  When some source passes radius 1 and
    n <= SWEEP_VERTEX_LIMIT, all classes grow together, radius by radius,
    as vertex bitmasks (`_sweep`), which raises the best once per radius
    and tests every class against one threshold.  Each mask takes up to
    n/8 bytes and two generations are kept, so the limit caps them at
    64 MiB; above it, one source per class (`_twin_sources`) among those
    that pass radius 1 runs its own BFS (`_ball_sizes`) in O(n) memory,
    raising the best by each ball and testing it against the threshold of
    its radius."""
    n = g.n
    if n == 0:
        raise PreconditionError("growth is undefined for the empty graph")
    delta = g.max_degree()
    num, den = delta + 1, 1
    bar = _threshold(n, delta, 1, num, den)
    if bar is None:
        return Fraction(num, den)
    need, gain = bar
    # The test grows with the degree, so some source passes iff one of
    # maximum degree does.
    passes = [d + 1 + d * gain >= need for d in range(delta + 1)]
    if not passes[delta]:
        return Fraction(num, den)
    if n <= SWEEP_VERTEX_LIMIT:
        return Fraction(*_sweep(g.adj, passes, delta, num, den))
    seen = [-1] * n
    for v in _twin_sources(g.adj, (v for v, nbrs in enumerate(g.adj) if passes[len(nbrs)])):
        for r, (size, level) in enumerate(_ball_sizes(g.adj, v, seen), start=1):
            if size * den > num * r:
                num, den = size, r
            bar = _threshold(n, delta, r, num, den)
            if bar is None or size + level * bar[1] < bar[0]:
                break
    return Fraction(num, den)


def _twin_sources(adj, vertices):
    """The source rule of both per-source BFS loops: the first of
    `vertices` in each class of closed twins, keyed by its sorted closed
    neighbourhood, with no n-bit masks.  Twins have equal balls at every
    radius r >= 1, so the other vertices of a class add nothing."""
    sources = {}
    for v in vertices:
        sources.setdefault(tuple(sorted((*adj[v], v))), v)
    return sources.values()


def _threshold(n: int, delta: int, r: int, num: int, den: int) -> Optional[Tuple[int, int]]:
    """The one stop rule of `growth_constant`: (need, gain) such that a ball
    B_r(v) of `size` vertices, `level` of them at distance exactly r, with
    size/r <= best = num/den, might beat best at a later radius iff
    size + level * gain >= need; None when no ball of radius r can.

    A ball never exceeds n vertices, so radii r + i with (r + i) * best >= n
    cannot beat best; let r + j be the last radius below that, and
    need = floor(best * (r + j)) + 1.  The Moore bound (`graphs.moore_gain`)
    gives |B_{r+i}(v)| <= size + level*((delta-1) + ... + (delta-1)**i) =: B_i.
    The slack best*(r + i) - B_i is concave in i (its increments
    best - level*(delta-1)**(i+1) never grow) and nonnegative at i = 0, so
    it is nonnegative on 0..j as soon as it is at i = j, that is, when
    B_j < need; the gain is summed only until it reaches need, which leaves
    that comparison as it is.  With delta <= 2 the ball stops once
    level*(delta-1) <= best, at r = 1 on every path and cycle; with
    delta >= 3 the bound grows geometrically and mostly stops a source only
    a few radii before n does.  The rule holds for any best that some ball
    attains, as the best only grows, so a source that stops could at most
    tie the final best; ratios are compared in integers, and the result is
    exact.  Level 0, a ball that is its whole component, always stops,
    since size <= best * r < need."""
    j = -(-n * den // num) - r - 1
    if j <= 0:
        return None
    need = num * (r + j) // den + 1
    return need, moore_gain(delta, j, need)


def _ball_rounds(adj):
    """Yield the balls B_r for r = 1, 2, ..., one vertex bitmask per class
    of closed twins (vertices u, v with N[u] = N[v]), classes in the order
    of their first vertices.  Twins have equal balls at every radius: the
    round-1 ball is N[u], and B_{r+1}(x) = B_r(x) | the union of B_r(w)
    over the neighbours w of x, which are the same for every x of a class.
    So each round grows a class's ball by the balls of the distinct other
    classes that one of its vertices neighbours.  When the round-1 masks
    are all distinct, the classes are the vertices and the rounds run on
    `adj` itself.  The rounds stop after the first one in which no ball
    changed, when every ball is its whole component.  A round pays one OR
    of ceil(n/64) words per class and neighbour class."""
    balls = _grow([1 << v for v in range(len(adj))], adj)
    if len(set(balls)) < len(balls):
        index = {}
        label = [index.setdefault(ball, len(index)) for ball in balls]
        # A class's last vertex stands for it; labels first appear in order.
        members = dict(zip(label, adj))
        adj = [{label[w] for w in nbrs} - {k} for k, nbrs in members.items()]
        balls = list(index)
    while True:
        yield balls
        grown = _grow(balls, adj)
        if grown == balls:
            return
        balls = grown


def _grow(balls, adj) -> list:
    """One round of `_ball_rounds`: ball x becomes balls[x] | balls[w] for
    every w in adj[x].  From the singletons {v} it gives B_1(v) = N[v]."""
    grown = []
    for ball, nbrs in zip(balls, adj):
        for w in nbrs:
            ball |= balls[w]
        grown.append(ball)
    return grown


def _sweep(adj, passes: list, delta: int, num: int, den: int) -> Tuple[int, int]:
    """Grow every ball by one radius per round (`_ball_rounds`), from
    radius 2 on, while some class of closed twins that passes radius 1
    (`passes[d]` for its degree d) might still beat the best ratio num/den,
    and return the final best.  Twins have equal balls, hence equal sizes
    and levels at every radius and the same `_threshold` decision, so one
    entry per class stays active.  Each round counts the active balls,
    raises the best once by the largest of them, returns once `_threshold`
    says that no ball of that radius can beat it, and otherwise keeps the
    classes with size + level * gain >= need.  The balls of inactive
    classes keep growing, since their neighbours' balls are built from
    them."""
    n = len(adj)
    rounds = _ball_rounds(adj)
    first = [ball.bit_count() for ball in next(rounds)]
    active = [k for k, size in enumerate(first) if passes[size - 1]]
    previous = [first[k] for k in active]
    for r, balls in enumerate(rounds, start=2):
        sizes = [balls[k].bit_count() for k in active]
        top = max(sizes)
        if top * den > num * r:
            num, den = top, r
        bar = _threshold(n, delta, r, num, den)
        if bar is None:
            break
        need, gain = bar
        keep = [size + (size - old) * gain >= need for size, old in zip(sizes, previous)]
        active = list(compress(active, keep))
        if not active:
            break
        previous = list(compress(sizes, keep))
    return num, den


def brute_force_growth(g: Graph, r: int) -> int:
    """Independent oracle: max |V(H)| over ALL subgraphs H with radius <= r.

    Enumerates the connected vertex subsets W and takes the radius of each
    g[W].  This covers every subgraph: a spanning subgraph of g[W] has
    distances at least those of g[W], so its radius is no smaller, and
    infinite when g[W] is disconnected; candidates with extra isolated
    vertices are disconnected too, except for the bare single vertex,
    which is handled directly.  A set whose size can no longer raise the
    table skips its BFS (see `_radius_table`).  No ball reasoning is used
    anywhere."""
    if g.n == 0:
        raise PreconditionError("growth is undefined for the empty graph")
    if r < 1:
        raise RangeError(f"r must be >= 1, got {r}")
    table = _radius_table(g)
    return max(size for rad, size in table if rad <= r)


@lru_cache(maxsize=256)
def _radius_table(g: Graph) -> Tuple[Tuple[int, int], ...]:
    """(radius, max vertex count) pairs over connected induced subgraphs of
    the non-isolated vertices, each visited once.  The sets whose smallest
    vertex is v are grown from {v}: a set S adds each neighbour w above v
    that is still allowed, and once w's branch is taken w is barred from
    S's later branches.  So a connected set T is reached along one path
    only, adding at each step the first allowed neighbour of the current
    set that lies in T.  A set of s vertices skips its radius BFS when
    `_settled` marks s: every radius its window [1 or 2, s // 2] allows
    already holds at least s vertices.  The skip is exact, since `best`
    only grows and a settled size stays settled; the window reads only s
    and the maximum degree, so no ball of g or induced radius enters."""
    support = [v for v in range(g.n) if g.adj[v]]
    if len(support) > BRUTE_FORCE_VERTEX_BUDGET:
        raise CapacityError(
            f"brute force refuses {len(support)} non-isolated vertices "
            f"(budget {BRUTE_FORCE_VERTEX_BUDGET})"
        )
    # A single vertex is a subgraph of radius 0.
    best = {0: 1}
    delta = g.max_degree()
    settled = _settled(best, delta, len(support))
    index = {v: i for i, v in enumerate(support)}
    adj_masks = [
        sum(1 << index[w] for w in g.adj[v] if w in index) for v in support
    ]
    full = (1 << len(support)) - 1
    for v, nbrs in enumerate(adj_masks):
        first = 1 << v
        # Per set: its mask, the union of its members' neighbours, and the
        # vertices it may still add.
        todo = [(first, nbrs, full & ~(2 * first - 1))]
        while todo:
            mask, near, allowed = todo.pop()
            grow = near & allowed
            while grow:
                low = grow & -grow
                grow ^= low
                allowed ^= low
                bigger = mask | low
                todo.append((bigger, near | adj_masks[low.bit_length() - 1], allowed))
                size = bigger.bit_count()
                if settled[size]:
                    continue
                rad = _mask_radius(adj_masks, bigger)
                if best.get(rad, 0) < size:
                    best[rad] = size
                    settled = _settled(best, delta, len(support))
    return tuple(sorted(best.items()))


def _settled(best: dict, delta: int, n: int) -> list:
    """settled[s] for s = 0..n: whether no subgraph on s vertices can raise
    `best`.  A connected subgraph on s >= 2 vertices of a graph of maximum
    degree delta has radius at least 1, and at least 2 once s > delta + 1,
    since a radius-1 centre is adjacent to the other s - 1 vertices; its
    radius is at most s // 2, the most a spanning tree can have.  So it can
    raise `best` only at a radius r in that window with best[r] < s."""
    return [
        all(best.get(r, 0) >= s for r in range(1 if s <= delta + 1 else 2, s // 2 + 1))
        for s in range(n + 1)
    ]


def _mask_radius(adj_masks, mask: int) -> Optional[int]:
    """Radius of the graph on the vertex bitmask `mask` whose edges are those
    of the bitmask adjacency `adj_masks` (the induced subgraph for
    `_radius_table`, the subset's own edges for `_edge_subset_radius_table`),
    or None if it is disconnected.  The BFS from the lowest vertex decides
    connectivity; every later BFS stops once its depth reaches the smallest
    eccentricity seen, since its source can then no longer beat it.  No
    eccentricity exceeds twice the radius, so the radius is at least
    ceil(e / 2) for the first source's eccentricity e, and the sources stop
    once the radius reaches it."""
    rad = None
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        reached = frontier = low
        ecc = 0
        while ecc != rad:
            nxt = 0
            f = frontier
            while f:
                u = (f & -f).bit_length() - 1
                nxt |= adj_masks[u]
                f &= f - 1
            nxt &= mask & ~reached
            if not nxt:
                break
            ecc += 1
            reached |= nxt
            frontier = nxt
        if rad is None:
            if reached != mask:
                return None
            floor = (ecc + 1) // 2
        # A BFS that stopped early has ecc == rad; one that finished, ecc < rad.
        rad = ecc
        if rad == floor:
            break
    return rad


def brute_force_growth_edge_subsets(g: Graph, r: int) -> int:
    """Literal edge-subset enumeration (plus the single-vertex candidate),
    used to cross-validate the vertex-subset oracle on tiny graphs."""
    if g.n == 0:
        raise PreconditionError("growth is undefined for the empty graph")
    if g.m > BRUTE_FORCE_EDGE_SUBSET_BUDGET:
        raise CapacityError(
            f"edge-subset enumeration refuses m={g.m} > {BRUTE_FORCE_EDGE_SUBSET_BUDGET}"
        )
    table = _edge_subset_radius_table(g)
    return max((size for rad, size in table if rad <= r), default=1)


@lru_cache(maxsize=256)
def _edge_subset_radius_table(g: Graph) -> Tuple[Tuple[int, int], ...]:
    """(radius, max vertex count) pairs over the subgraphs formed by every
    nonempty edge subset, plus the single vertex (radius 0), computed once
    per graph by plain 2^m enumeration.  The subsets are walked in Gray-code
    order: subset i differs from subset i - 1 in the edge numbered by the
    lowest set bit of i, so one adjacency over g's own vertex ids and the
    mask of its non-isolated vertices are updated by one edge per subset.
    Subset i is the Gray code i ^ i >> 1, so its edge count is that code's
    bit count, and a subset with fewer edges than its vertices less one is
    disconnected and skipped before any BFS.  Before that, a subset whose
    vertex count `_settled` marks is skipped, exactly as in `_radius_table`:
    no radius in its window [1 or 2, s // 2] can rise, as `best` only
    grows; no ball of g or induced radius enters.  Like
    `_radius_table`, its cache is per process: a later call on an equal
    graph skips the enumeration."""
    edges = g.edges()
    adj = [0] * g.n
    mask = 0
    best = {0: 1}
    delta = g.max_degree()
    settled = _settled(best, delta, g.n)
    for i in range(1, 1 << len(edges)):
        u, v = edges[(i & -i).bit_length() - 1]
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        mask &= ~(1 << u | 1 << v)
        mask |= bool(adj[u]) << u | bool(adj[v]) << v
        size = mask.bit_count()
        if settled[size] or (i ^ i >> 1).bit_count() < size - 1:
            continue
        rad = _mask_radius(adj, mask)
        if rad is not None and best.get(rad, 0) < size:
            best[rad] = size
            settled = _settled(best, delta, g.n)
    return tuple(sorted(best.items()))


@dataclass(frozen=True)
class BoundVerdict:
    holds: bool
    first_violation: Optional[Tuple[int, int]] = None  # (r, f(r))


def verify_growth_bound(g: Graph, bound: Callable[[int], Fraction]) -> BoundVerdict:
    """Check f_g(r) <= bound(r) for every r in [1, n], past which f stays
    constant.  The bound need not be monotone: it is evaluated at every r,
    and since f(r) <= n the profile is computed only up to the last r with
    bound(r) < n, and not at all when there is none.  The first violation
    is returned; a bound that cannot be evaluated at r raises
    PreconditionError only when no radius before r is violated."""
    if g.n == 0:
        raise PreconditionError("growth is undefined for the empty graph")
    limits = []
    error = None
    for r in range(1, g.n + 1):
        try:
            limits.append(Fraction(bound(r)))
        except Exception as exc:
            error = exc
            break
    tight = [r for r, limit in enumerate(limits, start=1) if limit < g.n]
    if tight:
        values = growth_profile(g, tight[-1]).values
        for r in tight:
            if values[r - 1] > limits[r - 1]:
                return BoundVerdict(False, (r, values[r - 1]))
    if error is not None:
        r = len(limits) + 1
        raise PreconditionError(f"bound not evaluable at r={r}: {error}") from error
    return BoundVerdict(True)
