"""Tree-decompositions: boundary-tracking construction from layer-split
separators, validity/width checking, exact treewidth on small instances by
decision passes over elimination prefixes between a minor-min-width lower
bound and a min-fill upper bound (each k climbs the contraction minors
behind that lower bound, smallest first, then the graph), and grid-minor
model verification.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Tuple

from .errors import CapacityError, InvariantViolationError, ModelError, PreconditionError, RangeError
from .graphs import Graph, components_within, iter_bits, json_int, json_ints, minor
from .separators import _growth_parameter, bfs_layering

EXACT_TREEWIDTH_VERTEX_BUDGET = 18


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed by tree nodes 0..len(bags)-1 plus undirected tree edges."""

    bags: Tuple[frozenset, ...]
    edges: Tuple[Tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def to_json_dict(self) -> dict:
        return {
            "nodes": [{"id": i, "bag": sorted(b)} for i, b in enumerate(self.bags)],
            "edges": [sorted(e) for e in self.edges],
            "width": self.width,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "TreeDecomposition":
        """Inverse of `to_json_dict`.  Node ids, bag members and edge
        endpoints must be JSON integers and each edge a pair (ParseError)."""
        nodes = sorted(data["nodes"], key=lambda d: json_int(d["id"], "node id"))
        if [d["id"] for d in nodes] != list(range(len(nodes))):
            raise RangeError("decomposition node ids must be exactly 0..k-1")
        bags = tuple(frozenset(json_ints(d["bag"], "bag")) for d in nodes)
        edges = tuple(tuple(json_ints(e, "tree edge", 2)) for e in data["edges"])
        return TreeDecomposition(bags=bags, edges=edges)


@dataclass(frozen=True)
class DecompositionReport:
    valid: bool
    width: int
    first_failure: Optional[str] = None


def check_tree_decomposition(g: Graph, td: TreeDecomposition) -> DecompositionReport:
    """Valid iff the index graph is a tree, every edge of g is covered by a
    bag, and every vertex's bag set is a nonempty connected subtree."""
    k = len(td.bags)
    width = td.width

    def fail(msg):
        return DecompositionReport(valid=False, width=width, first_failure=msg)

    if k == 0:
        return fail("decomposition has no nodes")
    for a, b in td.edges:
        if not (0 <= a < k and 0 <= b < k) or a == b:
            return fail(f"bad tree edge ({a},{b})")
    if len(td.edges) != k - 1:
        return fail(f"tree needs {k - 1} edges, got {len(td.edges)}")
    neigh = [[] for _ in range(k)]
    for a, b in td.edges:
        neigh[a].append(b)
        neigh[b].append(a)
    # One BFS from node 0 roots the index tree; order is queue and reach count.
    parent = [-1] + [-2] * (k - 1)
    order = [0]
    for x in order:
        for y in neigh[x]:
            if parent[y] == -2:
                parent[y] = x
                order.append(y)
    if len(order) != k:
        return fail("index graph is disconnected")
    if g.n == 0:
        if k == 1 and not td.bags[0]:
            return DecompositionReport(valid=True, width=-1)
        return fail("empty graph needs the single empty bag")
    for i, bag in enumerate(td.bags):
        if not bag:
            return fail(f"bag {i} is empty")
        for v in bag:
            if not (0 <= v < g.n):
                return fail(f"bag {i} contains out-of-range vertex {v}")
    # v is a top at bag i when i is the root or i's parent bag lacks v.  Each
    # component of v's bags has exactly one top, so they form a connected
    # subtree iff v has one top: top[v] is it, -1 for none, -2 for several.
    top = [-1] * g.n
    for i, bag in enumerate(td.bags):
        for v in bag if parent[i] < 0 else bag - td.bags[parent[i]]:
            top[v] = i if top[v] == -1 else -2
    for v in range(g.n):
        if top[v] == -1:
            return fail(f"vertex {v} appears in no bag")
        if top[v] == -2:
            return fail(f"vertex {v}'s bags do not induce a connected subtree")
    # Two subtrees meet iff one holds the other's top.  Edges (u, v), u < v,
    # are met in sorted order, so the first uncovered one is named.
    for u, nbrs in enumerate(g.adj):
        top_bag = td.bags[top[u]]
        for v in nbrs:
            if u < v and v not in top_bag and u not in td.bags[top[v]]:
                return fail(f"edge ({u},{v}) covered by no bag")
    return DecompositionReport(valid=True, width=width)


def build_tree_decomposition(g: Graph, c) -> TreeDecomposition:
    """Boundary-tracking construction: a node (X, W) keeps a boundary W
    contained in X separating X\\W from the rest of the graph.  Sets with
    |X\\W| <= ceil(2c) become single bags.  Any other X is laid out
    by its layering from min(X); if that misses part of X, the components
    of g[X] hang below a bag W, or form a path when W is empty.  Otherwise
    g[X] is cut at the layer V_j that `_choose_split` ranks first: bag
    W+V_j, children (A, (W&A)+V_j) and (B, (W&B)+V_j).  With c below the
    growth constant the result is still valid, but the 49c^2 + 30c width
    bound does not hold.  Bag ids come in post-order from an explicit work
    stack: children before their parent, A before B, components in
    `components_within` order.

    Only B sides, the root and components without min(X) run
    `separators.bfs_layering`.  An A side holds its parent's root, so its
    layering is `Layering.prefix(j)` of the parent's, sliced only once that
    child turns out not to be a leaf; a layering that misses part of X is
    already that of the component of min(X), which takes it as it is.
    Both are the BFS a fresh call would run, so the bags are the same."""
    c = _growth_parameter(c)
    if g.n == 0:
        return TreeDecomposition(bags=(frozenset(),), edges=())
    threshold = math.ceil(2 * c)
    bags: list = []
    tree_edges: list = []
    roots: list = []  # root ids of finished subtrees, in finishing order
    # ("node", X, W, parent, j) decomposes g[X] with boundary W, laid out by
    # parent.prefix(j), or by a fresh BFS when parent is None; ("join", bag,
    # k) runs after its k children, whose roots are then the last k entries
    # of roots, and hangs them below a new bag, or chains them when bag is
    # None.
    work = [("node", frozenset(range(g.n)), frozenset(), None, 0)]
    while work:
        entry = work.pop()
        if entry[0] == "join":
            _, bag, k = entry
            children = roots[-k:]
            del roots[-k:]
            if bag is None:
                tree_edges.extend(zip(children, children[1:]))
                roots.append(children[-1])
            else:
                bags.append(bag)
                roots.append(len(bags) - 1)
                tree_edges.extend((roots[-1], child) for child in children)
            continue
        _, X, W, parent, j = entry
        # Every node keeps W a subset of X: the root's W is empty, a
        # component gets W & comp, and each side gets (W & side) + V_j with
        # V_j inside the side.
        if len(X) - len(W) <= threshold:
            bags.append(X)
            roots.append(len(bags) - 1)
            continue
        layering = bfs_layering(g, X, c) if parent is None else parent.prefix(j)
        if len(layering.order) < len(X):
            comps = components_within(g, X)
            work.append(("join", W or None, len(comps)))
            work.extend(
                ("node", comp, W & comp, layering if layering.root in comp else None, layering.p)
                for comp in reversed(comps)
            )
            continue
        j = _choose_split(W, layering)
        a_side, b_side, sep = layering.sides(j)
        w_a, w_b = (W & a_side) | sep, (W & b_side) | sep
        # A split that fails to shrink |X\W| would be pushed again forever.
        if max(len(a_side) - len(w_a), len(b_side) - len(w_b)) >= len(X) - len(W):
            raise InvariantViolationError(
                f"split at layer j={j} of p={layering.p} does not shrink |X\\W| = {len(X) - len(W)}"
            )
        work.append(("join", W | sep, 2))
        work.append(("node", b_side, w_b, None, 0))
        work.append(("node", a_side, w_a, layering, j))
    return TreeDecomposition(bags=tuple(bags), edges=tuple(tree_edges))


def _choose_split(W, layering) -> int:
    """The layer j in [1,p] of the split with the least rank key among
    those whose split strictly shrinks both measures
    |side \\ W \\ V_j|, where A = layers 0..j and B = layers j..p:

    - (0, max(|W&A|, |W&B|), |j - median thin index|, j) for thin j < p;
    - (1, |j - ceil(p/2)|, j) for every other j, seen to run only with c
      below the growth constant.

    Every bound below is the layer l(t) = bisect_right(ends, t) of a
    position t in `order`, where W's vertices sit at the positions `at`.
    Both measures shrink iff layers 0..j and j..p each hold a non-W
    vertex, so these j form one interval [lo, hi] from the layer (at least
    1) of the first non-W vertex to that of the last, nonempty since
    |X\\W| > 1 puts a non-W vertex outside V_0.  With no thin j < p in it,
    all of it is class 1, led by ceil(p/2) clamped into [lo, hi].

    For m < |W|, |W&A| <= m iff j < l(at[m]) and |W&B| <= m iff
    j > l(at[-m-1]), so the class-0 cuts of imbalance at most m are one
    slice of the thin j in [lo, min(hi, p-1)], which grows with m to all of
    them at m = |W|.  One bisect finds the least m with a nonempty slice.
    The median is thin, so the slice's j nearest it is the median or an
    end of the slice."""
    ends, p, thin, median = layering.ends, layering.p, layering.thin, layering.median
    at = [t for t, v in enumerate(layering.order) if v in W]
    # gaps[i] counts the non-W vertices before at[i] and never decreases, so
    # the k-th non-W vertex, from 0, sits at k + bisect_left(gaps, k + 1).
    gaps = [t - i for i, t in enumerate(at)]
    free = len(layering.order) - len(at)
    lo = max(1, bisect_right(ends, bisect_left(gaps, 1)))
    hi = bisect_right(ends, bisect_left(gaps, free) + free - 1)
    first, stop = bisect_left(thin, lo), bisect_right(thin, min(hi, p - 1))
    if first == stop:
        return min(max((p + 1) // 2, lo), hi)
    # Sentinels in layers 0 and p + 1 make the slice at m = |W| all of thin[first:stop].
    spots = [-1, *at, len(layering.order)]
    within = lambda m: range(bisect_right(thin, bisect_right(ends, spots[-m - 2]), first, stop),
                             bisect_left(thin, bisect_right(ends, spots[m + 1]), first, stop))
    best = within(bisect_left(range(len(at) + 1), 1, key=lambda m: len(within(m))))
    return thin[min(bisect_left(thin, median, best.start, best.stop), best.stop - 1)]


def exact_treewidth(g: Graph) -> Tuple[int, TreeDecomposition]:
    """Exact treewidth and a witness decomposition of that width.

    The min-fill elimination order gives an upper bound ub, and
    minor-min-width (`_contraction_walk`) a lower bound lb.  For k = lb,
    ..., ub - 1 a decision pass searches the elimination prefixes S
    reachable with every elimination degree |Q(S, v)| <= k, where Q(S, v)
    is the set of vertices outside S + {v} reachable from v through S
    (Bodlaender, Fomin, Koster, Kratsch & Thilikos, "On exact algorithms for
    treewidth", TALG 2012).  The first k that succeeds is the treewidth;
    if none does, the treewidth is ub.  The witness is rebuilt from the
    winning elimination order, so its bags may differ from those of another
    exact solver while its width is exact.

    Every k climbs one ladder: the minors H of the walk, smallest first,
    then g.  A rung passes at k if it has at most k + 1 vertices (g never
    does, as k < ub <= n - 1) or if its pass succeeds.  Every minor H of g
    has tw(H) <= tw(g) and the pass is exact, so a failing rung refutes k;
    a minor does so without the pass on g (the contraction lower bounds of
    Bodlaender, Koster & Wolle, JGAA 2006).  The next k starts on that
    rung, since the rungs below passed at k and so pass at k + 1.  g's pass
    is the same call as without minors, so the width and witness do not
    depend on them."""
    n = g.n
    if n == 0:
        raise PreconditionError("treewidth is undefined for the empty graph")
    _exact_treewidth_size(n)
    adjm = [sum(1 << w for w in g.adj[v]) for v in range(n)]
    lb, minors = _contraction_walk(adjm)
    witness = _order_decomposition(adjm, _min_fill_order(adjm))
    ladder = chain((rows for rows, _ in reversed(minors)), [adjm])
    h = next(ladder)
    for k in range(lb, witness.width):
        while len(h) <= k + 1 or (order := _elimination_order_within(h, k)) is not None:
            if h is adjm:
                witness = _order_decomposition(adjm, order)
                return witness.width, witness
            h = next(ladder)
    return witness.width, witness


def _exact_treewidth_size(n: int) -> None:
    """Refuses n past the budget, also before a caller builds the graph."""
    if n > EXACT_TREEWIDTH_VERTEX_BUDGET:
        raise CapacityError(f"exact treewidth refuses n={n} > {EXACT_TREEWIDTH_VERTEX_BUDGET}")


def _min_fill_order(adjm) -> list:
    """Elimination order that always takes a vertex whose elimination adds
    the fewest fill edges, the smallest id on ties."""
    adj = list(adjm)

    def twice_fill(v):
        # Each non-adjacent pair of neighbours of v, counted from both ends.
        return sum((adj[v] & ~adj[u] & ~(1 << u)).bit_count() for u in iter_bits(adj[v]))

    left = (1 << len(adj)) - 1
    order = []
    while left:
        v = min(iter_bits(left), key=lambda v: (twice_fill(v), v))
        _eliminate(adj, v)
        left &= ~(1 << v)
        order.append(v)
    return order


def _eliminate(adj, v: int) -> int:
    """One step of the elimination game on the bitmask adjacency `adj`: v's
    neighbours become a clique and v leaves the graph.  Returns v's
    neighbourhood, which is Q(S, v) for the set S eliminated before v.  Its
    bits are walked inline: every push of the decision pass calls it."""
    nbrs = rest = adj[v]
    gone = 1 << v
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        adj[u] = (adj[u] | nbrs) & ~(low | gone)
    return nbrs


def _contraction_walk(adjm):
    """Minor-min-width lower bound and the minors behind it.  Every minor H
    of g has treewidth at least its minimum degree, so contract a
    minimum-degree vertex into its least-degree neighbour (delete it when
    isolated) until one vertex is left, and keep the largest minimum degree
    seen.  Returns that bound and the minors after each step, largest
    first, each as bitmask rows and branch sets (bitmasks over g) on ids
    0..n'-1 in g's order, so that ties break as they would on g's ids."""
    rows, parts = list(adjm), [1 << v for v in range(len(adjm))]
    best, minors = 0, []
    while len(rows) > 1:
        v = min(range(len(rows)), key=lambda v: (rows[v].bit_count(), v))
        best = max(best, rows[v].bit_count())
        # New lists, so no kept minor is edited; as every neighbour of v
        # loses bit v, their order by degree stays.
        low = (1 << v) - 1
        squeeze = lambda row: row & low | row >> 1 & ~low
        rows, parts = [squeeze(row) for row in rows], list(parts)
        nbrs, part = rows.pop(v), parts.pop(v)
        if nbrs:
            u = min(iter_bits(nbrs), key=lambda u: (rows[u].bit_count(), u))
            rows[u] = (rows[u] | nbrs) & ~(1 << u)
            parts[u] |= part
            for w in iter_bits(nbrs & ~(1 << u)):
                rows[w] |= 1 << u
        minors.append((rows, parts))
    return best, minors


def _elimination_order_within(adjm, k: int) -> Optional[list]:
    """An elimination order whose every elimination degree is at most k, or
    None.  The search enters the elimination prefixes S reachable with every
    |Q(S', v)| <= k, each once, since whether S can be completed does not
    depend on the order within S.  `last` holds, for each reached prefix,
    its last vertex plus one (0 for a prefix not reached) and doubles as the
    backpointers.  It is one byte per prefix, 256 KiB at n = 18 whatever the
    graph; a dict of the reached prefixes grew with the graph to megabytes.
    Prefixes are expanded newest first, so a pass that succeeds goes deep at
    once and `todo` holds at most n prefixes per level.  Each entry carries
    the bitmask adjacency of g with S eliminated (its fill graph restricted
    to the vertices outside S), in which v's neighbourhood is exactly
    Q(S, v): trying v is one list index and one bit count, and a pushed
    prefix costs one copied list of n masks, made by `_eliminate`.  It
    succeeds on reaching a prefix with n - |S| - 1 <= k: the remaining
    vertices then go in any order, since each has at most k later
    neighbours.

    No prefix holds a vertex of the clique K = `_greedy_clique(adjm)`, which
    leaves the search to the prefixes of G - K.  This loses no answer: if
    tw <= k, a triangulation H of width tw has K as a clique, and a chordal
    graph that is not complete has two non-adjacent simplicial vertices
    (Dirac), one of them outside K.  Eliminating such vertices one at a time
    is an elimination order of H, so of width <= k in G, that ends with K.
    K may hold every vertex, so n - 1 <= k returns an order at once."""
    n = len(adjm)
    if n - 1 <= k:
        return list(range(n))
    full = (1 << n) - 1
    walk = full & ~_greedy_clique(adjm)
    last = bytearray(1 << n)
    todo = [(0, list(adjm))]
    while todo:
        S, adj = todo.pop()
        # Bits are walked inline: this is the search's inner loop.
        free = walk & ~S
        while free:
            low = free & -free
            free ^= low
            T = S | low
            if last[T]:
                continue
            v = low.bit_length() - 1
            if adj[v].bit_count() <= k:
                last[T] = v + 1
                if n - T.bit_count() - 1 <= k:
                    # Built back to front: the other vertices, then T's prefix.
                    order = [u for u in range(n) if not T >> u & 1]
                    while T:
                        u = last[T] - 1
                        order.append(u)
                        T ^= 1 << u
                    order.reverse()
                    return order
                nxt = list(adj)
                _eliminate(nxt, v)
                todo.append((T, nxt))
    return None


def _greedy_clique(adjm) -> int:
    """Bitmask of the largest of the n greedy cliques, the first on ties:
    the one from v keeps adding the common neighbour of its members with
    the most neighbours among the common neighbours, the smallest id on
    ties."""
    best = 0
    for v, nbrs in enumerate(adjm):
        clique, common = 1 << v, nbrs
        while common:
            u = max(iter_bits(common), key=lambda u: ((adjm[u] & common).bit_count(), -u))
            clique |= 1 << u
            common &= adjm[u]
        if clique.bit_count() > best.bit_count():
            best = clique
    return best


def _order_decomposition(adjm, order) -> TreeDecomposition:
    """Tree-decomposition of an elimination order: bag i is order[i] with its
    later neighbours in the fill graph, hung below the bag of the earliest
    of them (or of order[i+1] when there is none)."""
    adj = list(adjm)
    bags = [frozenset(iter_bits(_eliminate(adj, v) | (1 << v))) for v in order]
    position = {v: i for i, v in enumerate(order)}
    edges = tuple(
        (i, min((position[w] for w in bags[i] if w != v), default=i + 1))
        for i, v in enumerate(order[:-1])
    )
    return TreeDecomposition(bags=tuple(bags), edges=edges)


@dataclass(frozen=True)
class MinorModel:
    """Branch sets of a q x q grid model, indexed by (row, col) in [0,q)^2."""

    side: int
    branch_sets: Tuple[Tuple[frozenset, ...], ...]  # branch_sets[row][col]

    def cell(self, i: int, j: int) -> frozenset:
        return self.branch_sets[i][j]


@dataclass(frozen=True)
class ModelVerdict:
    valid: bool
    first_failure: Optional[str] = None


def grid_identity_model(k: int) -> MinorModel:
    """Singleton branch sets realising grid(k) inside itself (row-major ids)."""
    sets = tuple(
        tuple(frozenset({r * k + col}) for col in range(k)) for r in range(k)
    )
    return MinorModel(side=k, branch_sets=sets)


def verify_grid_minor_model(g: Graph, model: MinorModel) -> ModelVerdict:
    """Valid iff the cells are branch sets of a minor of g (`graphs.minor`)
    in which every consecutive row/column pair of cells is adjacent."""
    q = model.side
    shape = [len(row) for row in model.branch_sets]
    if shape != [q] * q:
        return ModelVerdict(False, f"branch sets are not {q} x {q}: row lengths {shape}")
    cells = {f"({i},{j})": model.cell(i, j) for i in range(q) for j in range(q)}
    try:
        h = minor(g, cells)
    except ModelError as exc:
        return ModelVerdict(False, str(exc))
    for i in range(q):
        for j in range(q - 1):
            if not h.has_edge(i * q + j, i * q + j + 1):
                return ModelVerdict(False, f"no edge between cells ({i},{j}) and ({i},{j + 1})")
            if not h.has_edge(j * q + i, (j + 1) * q + i):
                return ModelVerdict(False, f"no edge between cells ({j},{i}) and ({j + 1},{i})")
    return ModelVerdict(True)
