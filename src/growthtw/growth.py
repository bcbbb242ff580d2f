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
from itertools import combinations
from typing import Callable, Optional, Tuple

from .errors import CapacityError, PreconditionError, RangeError
from .graphs import Graph, moore_steps

# Exhaustive enumeration refuses beyond these sizes.
BRUTE_FORCE_EDGE_BUDGET = 20
BRUTE_FORCE_VERTEX_BUDGET = 16


@dataclass(frozen=True)
class GrowthProfile:
    """f(1), ..., f(r_max) plus the exact growth constant
    c = max_{1<=r<=min(r_max,n)} f(r)/r and the smallest radius attaining it."""

    values: Tuple[int, ...]
    growth_constant: Fraction
    argmax_radius: int

    @property
    def r_max(self) -> int:
        return len(self.values)

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
    maximised over r in [1, min(r_max, n)]."""
    if g.n == 0:
        raise PreconditionError("growth is undefined for the empty graph")
    if r_max < 1:
        raise RangeError(f"r_max must be >= 1, got {r_max}")
    # largest[r] = max_v |B_r(v)| over sources still growing at r;
    # whole[e] = largest component whose ball is complete at radius e, as
    # it stays for every larger radius.
    largest = [1] * (r_max + 1)
    whole = [0] * (r_max + 1)
    seen = [-1] * g.n
    for v in range(g.n):
        r, size = 0, 1
        for r, (size, _) in zip(range(1, r_max + 1), _ball_sizes(g.adj, v, seen)):
            if size > largest[r]:
                largest[r] = size
        if r < r_max and size > whole[r]:
            whole[r] = size
    values = []
    complete = 0
    for r in range(1, r_max + 1):
        complete = max(complete, whole[r - 1])
        values.append(max(largest[r], complete))
    ratio = Fraction(0)
    ratio_r = 1
    for r in range(1, min(r_max, g.n) + 1):
        if Fraction(values[r - 1], r) > ratio:
            ratio = Fraction(values[r - 1], r)
            ratio_r = r
    return GrowthProfile(tuple(values), ratio, ratio_r)


def growth_constant(g: Graph) -> Fraction:
    """Exact c_G = max_v max_r |B_r(v)|/r in one pass of BFS.  The best ratio
    starts at f(1)/1 = max degree + 1, and each source's BFS stops after
    radius r once no later radius can beat the best.

    A ball never exceeds n vertices, so radii r + i with (r + i) * best >= n
    cannot; let r + j be the last radius below that.  With s = |B_r(v)|,
    L vertices at distance exactly r and maximum degree delta, the Moore
    bound (`graphs.moore_steps`) gives |B_{r+i}(v)| <= s + L*((delta-1) +
    ... + (delta-1)**i) =: B_i.  The slack best*(r + i) - B_i is concave in
    i (its increments best - L*(delta-1)**(i+1) never grow) and nonnegative
    at i = 0, so it is nonnegative on 0..j as soon as it is at i = j.  With
    delta <= 2 that holds once L*(delta-1) <= best, at r = 1 on every path
    and cycle; with delta >= 3 the bound grows geometrically and mostly
    stops a source only a few radii before n does.  Ratios are compared in
    integers, and a stopped source could at most tie the best, so the
    result is exact."""
    n = g.n
    if n == 0:
        raise PreconditionError("growth is undefined for the empty graph")
    delta = g.max_degree()
    num, den = delta + 1, 1
    seen = [-1] * n
    for v in range(n):
        for r, (size, level) in enumerate(_ball_sizes(g.adj, v, seen), start=1):
            if size * den > num * r:
                num, den = size, r
            j = -(-n * den // num) - r - 1
            # B_j <= best*(r + j) iff the bound needs more than j radii to
            # pass num*(r + j)//den vertices.
            if j <= 0 or moore_steps(delta, size, level, num * (r + j) // den + 1) > j:
                break
    return Fraction(num, den)


def brute_force_growth(g: Graph, r: int) -> int:
    """Independent oracle: max |V(H)| over ALL subgraphs H with radius <= r.

    Enumerates vertex subsets and checks the radius of the induced subgraph.
    This covers every subgraph: a spanning subgraph of g[W] has distances at
    least those of g[W], so its radius is no smaller; candidates with extra
    isolated vertices are disconnected (hence of infinite radius) except for
    the bare single vertex, which is handled directly.  No ball reasoning is
    used anywhere."""
    if g.n == 0:
        raise PreconditionError("growth is undefined for the empty graph")
    if r < 1:
        raise RangeError(f"r must be >= 1, got {r}")
    if g.m > BRUTE_FORCE_EDGE_BUDGET:
        raise CapacityError(f"brute force refuses m={g.m} > {BRUTE_FORCE_EDGE_BUDGET}")
    table = _radius_table(g)
    return max(size for rad, size in table if rad <= r)


@lru_cache(maxsize=256)
def _radius_table(g: Graph) -> Tuple[Tuple[int, int], ...]:
    """(radius, max vertex count) pairs over connected induced subgraphs,
    computed by plain 2^V enumeration over non-isolated vertices."""
    support = [v for v in range(g.n) if g.adj[v]]
    if len(support) > BRUTE_FORCE_VERTEX_BUDGET:
        raise CapacityError(
            f"brute force refuses {len(support)} non-isolated vertices "
            f"(budget {BRUTE_FORCE_VERTEX_BUDGET})"
        )
    # A single vertex is a subgraph of radius 0.
    best = {0: 1}
    index = {v: i for i, v in enumerate(support)}
    adj_masks = [
        sum(1 << index[w] for w in g.adj[v] if w in index) for v in support
    ]
    k = len(support)
    for mask in range(3, 1 << k):
        if mask & (mask - 1) == 0:
            continue
        rad = _mask_radius(adj_masks, mask, k)
        if rad is None:
            continue
        size = bin(mask).count("1")
        if best.get(rad, 0) < size:
            best[rad] = size
    return tuple(sorted(best.items()))


def _mask_radius(adj_masks, mask: int, k: int) -> Optional[int]:
    """Radius of the induced subgraph on `mask`, or None if disconnected."""
    rad = None
    for v in range(k):
        if not (mask >> v) & 1:
            continue
        reached = 1 << v
        frontier = reached
        ecc = 0
        while True:
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
        if reached != mask:
            return None
        if rad is None or ecc < rad:
            rad = ecc
    return rad


def brute_force_growth_edge_subsets(g: Graph, r: int) -> int:
    """Literal edge-subset enumeration (plus the single-vertex candidate),
    used to cross-validate the vertex-subset oracle on tiny graphs."""
    if g.n == 0:
        raise PreconditionError("growth is undefined for the empty graph")
    if g.m > 14:
        raise CapacityError(f"edge-subset enumeration refuses m={g.m} > 14")
    table = _edge_subset_radius_table(g)
    return max((size for rad, size in table if rad <= r), default=1)


@lru_cache(maxsize=256)
def _edge_subset_radius_table(g: Graph) -> Tuple[Tuple[int, int], ...]:
    """(radius, max vertex count) pairs over the subgraphs formed by every
    nonempty edge subset, plus the single vertex (radius 0), computed once
    per graph by plain 2^m enumeration.  Like `_radius_table`, its cache is
    per process: a later call on an equal graph skips the enumeration."""
    edges = list(g.edges())
    best = {0: 1}
    for size in range(1, len(edges) + 1):
        for subset in combinations(edges, size):
            verts = sorted({u for e in subset for u in e})
            index = {v: i for i, v in enumerate(verts)}
            adj = [0] * len(verts)
            for u, v in subset:
                adj[index[u]] |= 1 << index[v]
                adj[index[v]] |= 1 << index[u]
            mask = (1 << len(verts)) - 1
            rad = _mask_radius(adj, mask, len(verts))
            if rad is not None and best.get(rad, 0) < len(verts):
                best[rad] = len(verts)
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
