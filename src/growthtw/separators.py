"""Balanced separations from BFS layerings.

The layer split takes the layering V_0, ..., V_p from the smallest vertex
of the set, classifies layers as thick (|V_i| >= 2c) or thin, and cuts at
the minimum thin index j whose prefix holds at least half of the thin
indices; a layering is one BFS order and where each layer ends in it, so
the sides of a cut are slices of that order.  Whenever f(r) <= c*r holds
for the induced subgraph this yields a separation of order < 2c whose
exclusive sides have size at most (1 - 1/(4c)) * n; the code asserts only
validity and reports the numbers.
Any root serves: the ball of radius p = ecc(root) around it holds all n
vertices, so n <= f(p) <= c*p and at most p/2 layers are thick, whichever
vertex the root is.

There is one separator function and no pluggable oracle:
`bfs_layer_separation` lays out any nonempty set with `bfs_layering`, lifts
the layer split to disconnected sets by peeling components, and returns the
layering it cut (None when it cut none); `two_thirds_separation` calls it on
the heavy side until both exclusive sides hold at most 2n/3 vertices.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Tuple

from .errors import InvariantViolationError, PreconditionError, RangeError
from .graphs import Graph, components_within


@dataclass(frozen=True)
class Separation:
    """Vertex cover pair (A, B) with no edge between A\\B and B\\A."""

    a: frozenset
    b: frozenset

    @property
    def order(self) -> int:
        return len(self.a & self.b)

    @property
    def exclusive_sides(self) -> Tuple[int, int]:
        return (len(self.a - self.b), len(self.b - self.a))


@dataclass(frozen=True)
class SeparationReport:
    valid: bool
    order: int
    alpha_achieved: Fraction          # max(|A|, |B|) / n
    sides: Tuple[int, int, int]       # (|A\B|, |A&B|, |B\A|)
    within_alpha: bool                # alpha_achieved <= requested alpha
    exclusive_ratio: Fraction         # max(|A\B|, |B\A|) / n
    failure: Optional[str] = None


@dataclass(frozen=True)
class Layering:
    """BFS layering V_0, ..., V_p of the component of min(X) in g[X], rooted
    at that smallest vertex; g[X] is connected exactly when `order` covers X.

    Two layerings follow from this one without a BFS.  When `order` misses
    part of X, this is already the layering of the component of min(X).
    And the A side of a cut j, layers 0..j, holds the root, and each vertex
    of layer i <= j is first reached from layer i - 1, also in A: so the
    BFS of g[A] from the same root visits `order[:ends[j]]` in the same
    order, and `prefix(j)` is that layering.  The record holds only what
    the BFS measured: the root is read off `order`, which it opens, and the
    cut `median` off `thin`."""

    order: Tuple[int, ...]            # the reached vertices, layer by layer
    ends: Tuple[int, ...]             # ends[i] = |V_0| + ... + |V_i|
    thin: Tuple[int, ...]             # S: indices in [1,p] with |V_i| < 2c

    @property
    def root(self) -> int:
        return self.order[0]

    @property
    def p(self) -> int:
        return len(self.ends) - 1

    @property
    def median(self) -> int:
        """The cut: the minimum thin index j with 2 * |S & [0,j]| >= |S|,
        which is thin[(|S| - 1) // 2]; p when every layer of [1,p] is thick,
        so that a valid (if unbalanced) separation is still produced."""
        thin = self.thin
        return thin[(len(thin) - 1) // 2] if thin else self.p

    def sides(self, j: int) -> Tuple[frozenset, frozenset, frozenset]:
        """The split at layer j as slices of `order`: (layers 0..j, layers j..p, V_j)."""
        order, start, end = self.order, self.ends[j - 1] if j else 0, self.ends[j]
        return frozenset(order[:end]), frozenset(order[start:]), frozenset(order[start:end])

    def prefix(self, j: int) -> "Layering":
        """The layering of the A side of the cut at layer j in [1,p], the
        same as `bfs_layering` of layers 0..j: its order and ends are
        prefixes of these, its thin indices those <= j."""
        if j == self.p:
            return self
        ends = self.ends[: j + 1]
        return Layering(
            order=self.order[: ends[j]],
            ends=ends,
            thin=self.thin[: bisect_right(self.thin, j)],
        )

    def to_json_dict(self) -> dict:
        """The layer-split trace: root, p, |V_0|, ..., |V_p|, the thick
        indices R and thin indices S of [1,p], and the cut j = median."""
        thin = set(self.thin)
        return {
            "root": self.root,
            "p": self.p,
            "layer_sizes": [end - start for start, end in zip((0,) + self.ends, self.ends)],
            "thick": [i for i in range(1, self.p + 1) if i not in thin],
            "thin": list(self.thin),
            "chosen_j": self.median,
        }


def bfs_layering(g: Graph, X: frozenset, c: Fraction) -> Layering:
    """Layering of g[X] from min(X) with its thin layers, the one layering
    behind both the layer split and the builder.  One BFS appends each
    vertex to `order`, and at the first vertex of each layer, where that
    layer ends to `ends`; it reaches only the component of min(X), so it
    covers X exactly when g[X] is connected.  An id of X outside [0, n) is
    a RangeError; only a layering that misses part of X needs max(X)
    checked, as it reaches only ids of g."""
    root = min(X)
    g._check_vertex(root)
    adj = g.adj
    order, ends, seen, end = [root], [], {root}, 0
    for t, u in enumerate(order):
        if t == end:
            # u opens the next layer, whose last vertex is already in order.
            end = len(order)
            ends.append(end)
        for w in adj[u]:
            # Most neighbours are already seen, so that test goes first.
            if w not in seen and w in X:
                seen.add(w)
                order.append(w)
    if len(order) < len(X):
        g._check_vertex(max(X))
    p = len(ends) - 1
    # A layer size is an integer, so it is below 2c exactly when below
    # ceil(2c), taken on c's integer terms.
    thick_size = -(-2 * c.numerator // c.denominator)
    thin = tuple(i for i in range(1, p + 1) if ends[i] - ends[i - 1] < thick_size)
    return Layering(order=tuple(order), ends=tuple(ends), thin=thin)


def iteration_cap(alpha) -> int:
    """ceil(log_alpha(2/3)): smallest i >= 1 with alpha^i <= 2/3, found by
    exact integer powers of alpha = a/b, compared as 3 * a^i <= 2 * b^i."""
    alpha = Fraction(alpha)
    if not (Fraction(2, 3) <= alpha < 1):
        raise RangeError(f"alpha must be in [2/3, 1), got {alpha}")
    a, b = alpha.numerator, alpha.denominator
    num, den, i = a, b, 1
    while 3 * num > 2 * den:
        num *= a
        den *= b
        i += 1
    return i


def check_separation(g: Graph, X: Optional[frozenset], s: Separation, alpha) -> SeparationReport:
    """Validity and balance report; all failures are verdicts, never raises
    for bad separations.  The crossing edge named is the first (u, w) with
    w in B\\A, searched u by u over A\\B and each u's adjacency list in
    order.  Both ratios are 0 on an empty host set, whatever the sides hold."""
    alpha = Fraction(alpha)
    X = _host_set(g, X)
    a, b = s.a, s.b
    n = len(X)
    excl_a, excl_b = a - b, b - a
    sides = (len(excl_a), len(a & b), len(excl_b))
    failure = None
    if not (a <= X and b <= X):
        failure = "A or B contains vertices outside the host set"
    elif a | b != X:
        failure = "A union B does not cover the host set"
    elif crossing := next(((u, w) for u in excl_a for w in g.adj[u] if w in excl_b), None):
        failure = "crossing edge ({},{}) between A\\B and B\\A".format(*crossing)
    alpha_achieved = Fraction(max(len(a), len(b)), n) if n else Fraction(0)
    return SeparationReport(
        valid=failure is None,
        order=sides[1],
        alpha_achieved=alpha_achieved,
        sides=sides,
        within_alpha=alpha_achieved <= alpha,
        exclusive_ratio=Fraction(max(sides[0], sides[2]), n) if n else Fraction(0),
        failure=failure,
    )


def separation_alpha(c) -> Fraction:
    """The balance 1 - 1/(4c) of the layer split for a growth parameter c,
    which must be at least 1, so alpha is at least 3/4."""
    c = _growth_parameter(c)
    return 1 - Fraction(1, 4 * c)


def bfs_layer_separation(
    g: Graph, X: Optional[frozenset], c
) -> Tuple[Separation, Optional[Layering]]:
    """Layer split of any nonempty set X with the layering it cut,
    alpha-balanced for alpha = 1 - 1/(4c) where f(r) <= c*r.  When the
    layering of X covers X it is cut at its median thin index, so one vertex
    gives (X, X).  Otherwise the smallest component J is peeled: either
    (X\\J, J) is balanced, or X\\J is separated the same way and J joins the
    smaller side.  The components of X\\J are those of X minus J, so one
    `components_within` call serves every level: the peel stops at the
    first rest of at most 2/3 of its host (or at one component, cut by its
    own layering, the layering of X when it holds min(X)), and a backward
    loop absorbs by side sizes, building each side once.  The
    layering returned is the one cut, None when only whole components were
    peeled."""
    c = _growth_parameter(c)
    X = _host_set(g, X)
    if not X:
        raise PreconditionError("cannot separate the empty set")
    layering = bfs_layering(g, X, c)
    if len(layering.order) == len(X):
        return _median_split(layering), layering
    comps = components_within(g, X)
    # hosts[i] = |X minus comps[:i]|, the suffix sums of the sizes.
    hosts = list(accumulate(map(len, reversed(comps)), initial=0))[::-1]
    depth = next(i for i in range(len(comps)) if 3 * hosts[i + 1] <= 2 * hosts[i])
    if depth == len(comps) - 1:
        # The layering of X already lays out the component of min(X).
        if layering.root not in comps[depth]:
            layering = bfs_layering(g, comps[depth], c)
        inner = _median_split(layering)
    else:
        layering = None
        inner = Separation(a=frozenset().union(*comps[depth + 1:]), b=comps[depth])
    sides = ([inner.a], [inner.b])
    sizes = [len(inner.a), len(inner.b)]
    a_side = 0
    for level in range(depth - 1, -1, -1):
        # Orient so |a| >= n/3 for n = hosts[level]; one side qualifies,
        # since the sides cover hosts[level + 1] > 2n/3 vertices.
        if 3 * sizes[a_side] < hosts[level]:
            a_side = 1 - a_side
        sides[1 - a_side].append(comps[level])
        sizes[1 - a_side] += len(comps[level])
    a, b = (frozenset().union(*sides[i]) for i in (a_side, 1 - a_side))
    return Separation(a=a, b=b), layering


def two_thirds_separation(g: Graph, X: Optional[frozenset], c) -> Tuple[Separation, int]:
    """Iterate `bfs_layer_separation` until both exclusive sides have size
    at most 2n/3: while one exceeds it, orient it as B\\A, split g[B\\A] into
    (C, D) with |D| >= |C|, D holding the smaller least id on a tie, and set
    A <- A + C, B <- D + (A & B).  Returns the separation and the number of
    layer splits made.  A side still above 2n/3 after the exact cap
    ceil(log_alpha(2/3)) of splits means a split was not alpha-balanced,
    which happens only where f(r) > c*r.  The calls reach the cap exactly
    when alpha^calls <= 2/3, tested on a running product, so the cap itself
    is never computed."""
    c = _growth_parameter(c)
    X = _host_set(g, X)
    n = len(X)
    alpha = separation_alpha(c)
    sep = bfs_layer_separation(g, X, c)[0]
    calls, power = 1, alpha
    while True:
        a, b = sep.a, sep.b
        excl_a, excl_b = len(a - b), len(b - a)
        if 3 * max(excl_a, excl_b) <= 2 * n:
            return sep, calls
        if 3 * power <= 2:
            raise InvariantViolationError(
                f"not 2/3-balanced after {calls} layer splits (cap {calls}) at c = {c}; "
                "the layer split is only (1 - 1/(4c))-balanced where f(r) <= c*r"
            )
        if excl_a > excl_b:
            a, b = b, a
        inner = bfs_layer_separation(g, b - a, c)[0]
        calls += 1
        power *= alpha
        c_side, d_side = inner.a, inner.b
        if len(c_side) > len(d_side) or len(c_side) == len(d_side) and min(c_side) < min(d_side):
            c_side, d_side = d_side, c_side
        sep = Separation(a=a | c_side, b=d_side | (a & b))


def _median_split(layering: Layering) -> Separation:
    """(layers 0..j, layers j..p) at the median thin index j."""
    a, b, _ = layering.sides(layering.median)
    return Separation(a=a, b=b)


def _growth_parameter(c) -> Fraction:
    c = Fraction(c)
    if c < 1:
        raise RangeError(f"c must be >= 1, got {c}")
    return c


def _host_set(g: Graph, X) -> frozenset:
    """The host set X of a separation, all of V(g) when None; an id outside
    [0, n) is refused by name."""
    X = frozenset(range(g.n)) if X is None else frozenset(X)
    g._check_vertices(X)
    return X
