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

There is one separator path and no pluggable oracle: `linear_growth_separator`
lays out its set with `bfs_layering` and lifts the layer split to
disconnected sets by peeling components, and `two_thirds_separation` calls
it on the heavy side until both exclusive sides hold at most 2n/3 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import (
    DegenerateInputError,
    InvariantViolationError,
    PreconditionError,
    RangeError,
)
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
    at that smallest vertex; g[X] is connected exactly when `order` covers
    X.  Any root serves, since B_p(root) = X gives n <= f(p) <= c*p."""

    root: int
    order: Tuple[int, ...]            # the reached vertices, layer by layer
    ends: Tuple[int, ...]             # ends[i] = |V_0| + ... + |V_i|
    thin: Tuple[int, ...]             # S: indices in [1,p] with |V_i| < 2c
    median: int                       # median_thin_index(thin, p)

    @property
    def p(self) -> int:
        return len(self.ends) - 1

    def sides(self, j: int) -> Tuple[frozenset, frozenset, frozenset]:
        """The split at layer j as slices of `order`: (layers 0..j, layers j..p, V_j)."""
        order, start, end = self.order, self.ends[j - 1] if j else 0, self.ends[j]
        return frozenset(order[:end]), frozenset(order[start:]), frozenset(order[start:end])

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
    """Layering of g[X] from min(X), with the thin layers and the median
    thin index; the one layering behind both the layer split and the
    builder.  One BFS appends each vertex to `order`, and at the first
    vertex of each layer, where that layer ends to `ends`; it reaches only
    the component of min(X), so it covers X exactly when g[X] is
    connected.  Any root serves: the thick-layer count rests on n =
    |B_p(root)| <= f(p) <= c*p, true from every root.  An id of X outside
    [0, n) is a RangeError; only a layering that misses part of X needs
    max(X) checked, since it reaches only ids of g."""
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
    return Layering(
        root=root,
        order=tuple(order),
        ends=tuple(ends),
        thin=thin,
        median=median_thin_index(thin, p),
    )


def bfs_layer_separation(g: Graph, X: Optional[frozenset], c) -> Tuple[Separation, Layering]:
    """Layer split of the connected induced subgraph g[X], with the layering
    it cut: A = layers 0..j, B = layers j..p from the root min(X), any root
    serving since n <= f(p) <= c*p bounds the thick layers.  The one BFS of
    `bfs_layering` decides connectivity: g[X] is connected iff it covers X."""
    c = _growth_parameter(c)
    X = _host_set(g, X)
    if len(X) == 1:
        raise DegenerateInputError("no layer split exists for a single vertex")
    if len(X) == 0:
        raise PreconditionError("cannot separate the empty set")
    layering = bfs_layering(g, X, c)
    if len(layering.order) < len(X):
        raise PreconditionError("bfs_layer_separation requires a connected set")
    return _median_split(layering), layering


def median_thin_index(thin: Tuple[int, ...], p: int) -> int:
    """Minimum thin index j with |S intersect [0,j]| >= |S| / 2, compared
    exactly as 2 * count >= |S|: the count is ceil(|S| / 2), so j is
    thin[(|S| - 1) // 2]."""
    if not thin:
        # Every layer in [1,p] is thick; fall back to the last layer so a
        # well-formed (if unbalanced) separation is still produced.
        return p
    return thin[(len(thin) - 1) // 2]


def iteration_cap(alpha) -> int:
    """ceil(log_alpha(2/3)): smallest i >= 1 with alpha^i <= 2/3, found by
    exact rational powering."""
    alpha = Fraction(alpha)
    if not (Fraction(2, 3) <= alpha < 1):
        raise RangeError(f"alpha must be in [2/3, 1), got {alpha}")
    power = alpha
    i = 1
    while power > Fraction(2, 3):
        power *= alpha
        i += 1
    return i


def _orient_by_size(x: frozenset, y: frozenset) -> Tuple[frozenset, frozenset]:
    """Return (smaller, larger); ties broken by smallest contained id."""
    if len(x) != len(y):
        return (x, y) if len(x) < len(y) else (y, x)
    if not x:
        return x, y
    return (y, x) if min(x) < min(y) else (x, y)


def check_separation(g: Graph, X: Optional[frozenset], s: Separation, alpha) -> SeparationReport:
    """Validity and balance report; all failures are verdicts, never raises
    for bad separations."""
    alpha = Fraction(alpha)
    X = _host_set(g, X)
    a, b = s.a, s.b
    n = len(X)
    failure = None
    if not (a <= X and b <= X):
        failure = "A or B contains vertices outside the host set"
    elif a | b != X:
        failure = "A union B does not cover the host set"
    else:
        excl_a, excl_b = a - b, b - a
        for u in excl_a:
            for w in g.adj[u]:
                if w in excl_b:
                    failure = f"crossing edge ({u},{w}) between A\\B and B\\A"
                    break
            if failure:
                break
    order = len(a & b)
    sides = (len(a - b), order, len(b - a))
    if n == 0:
        alpha_achieved = Fraction(0)
        exclusive = Fraction(0)
    else:
        alpha_achieved = Fraction(max(len(a), len(b)), n)
        exclusive = Fraction(max(sides[0], sides[2]), n)
    return SeparationReport(
        valid=failure is None,
        order=order,
        alpha_achieved=alpha_achieved,
        sides=sides,
        within_alpha=alpha_achieved <= alpha,
        exclusive_ratio=exclusive,
        failure=failure,
    )


def separation_alpha(c) -> Fraction:
    """The balance max(2/3, 1 - 1/(4c)) of the layer split for a growth
    parameter c, which must be at least 1."""
    c = _growth_parameter(c)
    return max(Fraction(2, 3), 1 - Fraction(1, 4 * c))


def linear_growth_separator(g: Graph, X: Optional[frozenset], c) -> Separation:
    """The layer split lifted to possibly disconnected sets, alpha-balanced
    for alpha = max(2/3, 1 - 1/(4c)) where f(r) <= c*r.  A layering of X that
    covers X is cut at its median thin index, so one vertex gives (X, X).
    Otherwise the smallest component J is peeled: either (X\\J, J) is
    balanced, or X\\J is separated the same way and J joins the smaller side.
    The components of X\\J are those of X minus J, so one `components_within`
    call serves every level: a forward loop peels until the rest is at most
    2/3 of its host (or one component is left, split by its own layering),
    and a backward loop absorbs by side sizes, building each side once."""
    c = _growth_parameter(c)
    X = _host_set(g, X)
    if not X:
        raise PreconditionError("cannot separate the empty set")
    layering = bfs_layering(g, X, c)
    if len(layering.order) == len(X):
        return _median_split(layering)
    comps = components_within(g, X)
    hosts = [len(X)]  # hosts[i] = |X minus comps[:i]|
    depth = 0
    while depth < len(comps) - 1 and 3 * (hosts[depth] - len(comps[depth])) > 2 * hosts[depth]:
        hosts.append(hosts[depth] - len(comps[depth]))
        depth += 1
    if depth == len(comps) - 1:
        inner = _median_split(bfs_layering(g, comps[depth], c))
    else:
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
    return Separation(a=a, b=b)


def two_thirds_separation(g: Graph, X: Optional[frozenset], c) -> Tuple[Separation, int]:
    """Iterate `linear_growth_separator` until both exclusive sides have size
    at most 2n/3: while one exceeds it, orient it as B\\A, split g[B\\A] into
    (C, D) with |D| >= |C|, and set A <- A + C, B <- D + (A & B).  Returns the
    separation and the number of layer splits made.  Exceeding the exact cap
    ceil(log_alpha(2/3)) means a split was not alpha-balanced, which happens
    only where f(r) > c*r.  The cap takes O(c) exact multiplications, so it
    is computed only once a split leaves a side above 2n/3."""
    c = _growth_parameter(c)
    X = _host_set(g, X)
    n = len(X)
    sep = linear_growth_separator(g, X, c)
    calls, cap = 1, None
    while True:
        a, b = sep.a, sep.b
        excl_a, excl_b = len(a - b), len(b - a)
        if 3 * max(excl_a, excl_b) <= 2 * n:
            return sep, calls
        if cap is None:
            cap = iteration_cap(separation_alpha(c))
        if calls >= cap:
            raise InvariantViolationError(
                f"not 2/3-balanced after {calls} layer splits (cap {cap}) at c = {c}; "
                "the layer split is only (1 - 1/(4c))-balanced where f(r) <= c*r"
            )
        if excl_a > excl_b:
            a, b = b, a
        inner = linear_growth_separator(g, b - a, c)
        calls += 1
        c_side, d_side = _orient_by_size(inner.a, inner.b)
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
    for v in (min(X), max(X)) if X else ():
        g._check_vertex(v)
    return X
