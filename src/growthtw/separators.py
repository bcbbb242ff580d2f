"""Balanced separations from BFS layerings.

The layer split takes the layering V_0, ..., V_p from the smallest vertex
of the set, classifies layers as thick (|V_i| >= 2c) or thin, and cuts at
the minimum thin index j whose prefix holds at least half of the thin
indices.  Whenever f(r) <= c*r holds for the induced subgraph this yields a
separation of order < 2c whose exclusive sides have size at most
(1 - 1/(4c)) * n; the code asserts only validity and reports the numbers.
Any root serves: the ball of radius p = ecc(root) around it holds all n
vertices, so n <= f(p) <= c*p and at most p/2 layers are thick, whichever
vertex the root is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional, Tuple

from .errors import (
    DegenerateInputError,
    InvariantViolationError,
    PreconditionError,
    RangeError,
)
from .graphs import Graph, bfs_layers, components_within, is_connected


@dataclass(frozen=True)
class Separation:
    """Vertex cover pair (A, B) with no edge between A\\B and B\\A."""

    a: frozenset
    b: frozenset
    host_size: int

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
    """BFS layering V_0, ..., V_p of a connected g[X] from its smallest
    vertex.  Any root serves, since B_p(root) = X gives n <= f(p) <= c*p."""

    root: int
    layer_of: Dict[int, int]          # vertex -> i with the vertex in V_i
    layers: Tuple[frozenset, ...]
    thin: Tuple[int, ...]             # S: indices in [1,p] with |V_i| < 2c
    median: int                       # median_thin_index(thin, p)

    @property
    def p(self) -> int:
        return len(self.layers) - 1


@dataclass(frozen=True)
class LayerSplitTrace:
    root: int
    p: int
    layer_sizes: Tuple[int, ...]      # |V_0|, ..., |V_p|
    thick: Tuple[int, ...]            # R: indices in [1,p] with |V_i| >= 2c
    thin: Tuple[int, ...]             # S: the complement in [1,p]
    chosen_j: int
    c: Fraction


def bfs_layering(g: Graph, X: frozenset, c: Fraction) -> Layering:
    """Layering of the connected induced subgraph g[X] from min(X), with the
    thin layers and the median thin index; the one layering behind both the
    layer split and the builder.  Any root serves: the thick-layer count
    rests on n = |B_p(root)| <= f(p) <= c*p, true from every root."""
    root = min(X)
    layers = bfs_layers(g, root, allowed=X).layers
    p = len(layers) - 1
    # A layer size is an integer, so it is below 2c exactly when below ceil(2c).
    thick_size = math.ceil(2 * c)
    thin = tuple(i for i in range(1, p + 1) if len(layers[i]) < thick_size)
    return Layering(
        root=root,
        layer_of={v: i for i, layer in enumerate(layers) for v in layer},
        layers=layers,
        thin=thin,
        median=median_thin_index(thin, p),
    )


def bfs_layer_separation(
    g: Graph, X: Optional[frozenset], c
) -> Tuple[Separation, LayerSplitTrace]:
    """Layer split of the connected induced subgraph g[X]:
    A = layers 0..j, B = layers j..p from the root min(X).  Its guarantees
    hold from any root, since n <= f(p) <= c*p with p the root's
    eccentricity bounds the thick layers whichever root is taken."""
    c = Fraction(c)
    if c < 1:
        raise RangeError(f"c must be >= 1, got {c}")
    X = frozenset(range(g.n)) if X is None else frozenset(X)
    if len(X) == 1:
        raise DegenerateInputError("no layer split exists for a single vertex")
    if len(X) == 0:
        raise PreconditionError("cannot separate the empty set")
    if not is_connected(g, X):
        raise PreconditionError("bfs_layer_separation requires a connected set")

    layering = bfs_layering(g, X, c)
    layers, p, j = layering.layers, layering.p, layering.median
    a = frozenset().union(*layers[: j + 1])
    b = frozenset().union(*layers[j:])
    sep = Separation(a=a, b=b, host_size=len(X))
    thin = set(layering.thin)
    trace = LayerSplitTrace(
        root=layering.root, p=p, layer_sizes=tuple(len(layer) for layer in layers),
        thick=tuple(i for i in range(1, p + 1) if i not in thin),
        thin=layering.thin, chosen_j=j, c=c,
    )
    return sep, trace


def median_thin_index(thin: Tuple[int, ...], p: int) -> int:
    """Minimum thin index j with |S intersect [0,j]| >= |S| / 2, compared
    exactly as 2 * count >= |S|.  The loop always returns by the last thin
    index, where count = |S|."""
    if not thin:
        # Every layer in [1,p] is thick; fall back to the last layer so a
        # well-formed (if unbalanced) separation is still produced.
        return p
    total = len(thin)
    count = 0
    for j in thin:
        count += 1
        if 2 * count >= total:
            return j


def separate_possibly_disconnected(
    g: Graph,
    X: Optional[frozenset],
    alpha,
    connected_separator: Callable[[frozenset], Separation],
) -> Separation:
    """Lift a connected-case separator to arbitrary induced subgraphs by
    peeling the smallest component J: either (X\\J, J) is already balanced,
    or separate X\\J the same way and absorb J into the smaller side.

    The components of X\\J are those of X minus J, still in
    `components_within` order, so one call serves every level: a forward
    loop peels components until the rest is at most 2/3 of its host (or one
    component is left), and a backward loop orients and absorbs them.  Only
    side sizes drive the backward loop, so each side is built once."""
    alpha = Fraction(alpha)
    if not (Fraction(2, 3) <= alpha < 1):
        raise RangeError(f"alpha must be in [2/3, 1), got {alpha}")
    X = frozenset(range(g.n)) if X is None else frozenset(X)
    if not X:
        raise PreconditionError("cannot separate the empty set")
    comps = components_within(g, X)
    hosts = [len(X)]  # hosts[i] = |X minus comps[:i]|
    depth = 0
    while depth < len(comps) - 1 and 3 * (hosts[depth] - len(comps[depth])) > 2 * hosts[depth]:
        hosts.append(hosts[depth] - len(comps[depth]))
        depth += 1
    if depth == len(comps) - 1:
        inner = connected_separator(comps[depth])
    else:
        rest = frozenset().union(*comps[depth + 1:])
        inner = Separation(a=rest, b=comps[depth], host_size=hosts[depth])
    if depth == 0:
        return inner
    sides = ([inner.a], [inner.b])
    sizes = [len(inner.a), len(inner.b)]
    a_side = 0
    for level in range(depth - 1, -1, -1):
        n = hosts[level]
        # Orient so |a| >= n/3; one side qualifies since |a| + |b| >= 2n/3.
        if 3 * sizes[a_side] < n:
            a_side = 1 - a_side
        if 3 * sizes[a_side] < n:
            raise InvariantViolationError("oracle returned a separation too small on both sides")
        sides[1 - a_side].append(comps[level])
        sizes[1 - a_side] += len(comps[level])
    a, b = (frozenset().union(*side) for side in sides)
    if a_side == 1:
        a, b = b, a
    return Separation(a=a, b=b, host_size=hosts[0])


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


def rebalance_to_two_thirds(
    g: Graph,
    X: Optional[frozenset],
    alpha,
    alpha_separator: Callable[[frozenset], Separation],
) -> Tuple[Separation, int]:
    """Iterate the resplitting update until both exclusive sides have size at
    most 2n/3: while one exceeds it, orient it as B\\A, split g[B\\A] into
    (C, D) with |D| >= |C|, and set A <- A + C, B <- D + (A & B).  Returns the
    separation and the number of oracle calls made; exceeding the exact cap
    ceil(log_alpha(2/3)) means the oracle broke its alpha-balance contract."""
    alpha = Fraction(alpha)
    cap = iteration_cap(alpha)
    X = frozenset(range(g.n)) if X is None else frozenset(X)
    if not X:
        raise PreconditionError("cannot separate the empty set")
    n = len(X)
    sep = alpha_separator(X)
    calls = 1
    while True:
        a, b = sep.a, sep.b
        excl_a, excl_b = len(a - b), len(b - a)
        if 3 * max(excl_a, excl_b) <= 2 * n:
            return sep, calls
        if calls >= cap:
            raise InvariantViolationError(
                f"not 2/3-balanced after {calls} oracle calls (cap {cap}); "
                "the alpha-separator violated its balance contract"
            )
        if excl_a > excl_b:
            a, b = b, a
        heavy = b - a
        inner = alpha_separator(heavy)
        calls += 1
        c_side, d_side = _orient_by_size(inner.a, inner.b)
        sep = Separation(a=a | c_side, b=d_side | (a & b), host_size=n)


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
    X = frozenset(range(g.n)) if X is None else frozenset(X)
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
    c = Fraction(c)
    if c < 1:
        raise RangeError(f"c must be >= 1, got {c}")
    return max(Fraction(2, 3), 1 - Fraction(1, 4 * c))


def linear_growth_separator(g: Graph, X: Optional[frozenset], c) -> Separation:
    """Composition used throughout: the layer split lifted to possibly
    disconnected sets at alpha = 1 - 1/(4c), with singletons handled directly."""
    c = Fraction(c)
    alpha = separation_alpha(c)

    def connected_oracle(Y: frozenset) -> Separation:
        if len(Y) == 1:
            return Separation(a=Y, b=Y, host_size=1)
        sep, _ = bfs_layer_separation(g, Y, c)
        return sep

    return separate_possibly_disconnected(g, X, alpha, connected_oracle)


def two_thirds_separation(g: Graph, X: Optional[frozenset], c) -> Tuple[Separation, int]:
    """2/3-balanced separation via the layer-split oracle and rebalancing."""
    c = Fraction(c)
    alpha = separation_alpha(c)
    return rebalance_to_two_thirds(
        g, X, alpha, lambda Y: linear_growth_separator(g, Y, c)
    )
