"""Stack (book) layouts: validity checking, exact stack number on small
graphs, and a decomposition-driven heuristic layout.

Two edges conflict under an order when their endpoints interleave; a layout
is valid when no two edges on the same stack conflict.  Conflicts depend
only on the cyclic order up to reflection, so the exact search fixes the
first vertex and prunes reversed orders.  It asks each order whether its
conflict graph colours with fewer colours than the best so far, colours
only an order that does, climbing from a certified lower bound, and stops
at the first order that reaches that bound.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, permutations
from operator import xor
from typing import Dict, Optional, Tuple

from .errors import CapacityError, PreconditionError, StructureError
from .decomposition import TreeDecomposition, check_tree_decomposition
from .graphs import Graph

EXACT_STACK_VERTEX_BUDGET = 8


@dataclass(frozen=True)
class StackLayout:
    """Vertex order (ids in position order) plus an edge -> stack map with
    stacks numbered 1..k."""

    order: Tuple[int, ...]
    assignment: Dict[Tuple[int, int], int]
    k: int

    def to_json_dict(self) -> dict:
        return {
            "order": list(self.order),
            "stacks": [
                {"u": u, "v": v, "stack": s}
                for (u, v), s in sorted(self.assignment.items())
            ],
            "k": self.k,
        }


@dataclass(frozen=True)
class LayoutVerdict:
    valid: bool
    first_crossing: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None


def check_stack_layout(g: Graph, layout: StackLayout) -> LayoutVerdict:
    """Nesting sweep, one stack at a time, in O(m log m).  Each edge becomes
    the integer key left * n + (n - 1 - right) of its positions, so a
    stack's keys sorted as ints run by left ascending, then right
    descending.  They are pushed onto a stack of open right ends; before
    each push, ends at or before the new left end are popped.  The rest
    then nest, innermost on top, so the new span crosses one of them exactly
    when it crosses the top: when the top's right end lies strictly inside
    the new span.  first_crossing is the first such (top edge, new edge)
    pair on the lowest-numbered stack that has one; its two edges are read
    back from the order only then."""
    n = g.n
    order = layout.order
    if sorted(order) != list(range(n)):
        raise StructureError("layout order is not a permutation of the vertices")
    # The order sorts to 0..n-1, so its i-th smallest entry is vertex i.
    pos = sorted(range(n), key=order.__getitem__)
    last = n - 1
    span = {}  # edge (u, v), u < v -> its key
    for u, nbrs in enumerate(g.adj):
        pu = pos[u]
        for v in nbrs:
            if u < v:
                pv = pos[v]
                span[u, v] = pu * n + last - pv if pu < pv else pv * n + last - pu
    assignment = layout.assignment
    if assignment.keys() != span.keys():
        raise StructureError("layout assignment does not cover exactly the edges")
    # Each distinct id is asked (a min/max would let a NaN through); only
    # when one fails are the ids walked in order to name the first bad one.
    k = layout.k
    ids = set(assignment.values())
    if not all(1 <= s <= k for s in ids):
        for s in assignment.values():
            if not (1 <= s <= k):
                raise StructureError(f"stack id {s} outside [1,{k}]")
    by_stack = {s: [] for s in ids}
    for e, s in assignment.items():
        by_stack[s].append(span[e])
    for s in sorted(by_stack):
        keys = by_stack[s]
        keys.sort()
        # Right ends of the open spans, non-increasing upwards, on a bottom
        # sentinel n that no span pops or crosses.
        ends = [n]
        for key in keys:
            left = key // n
            while ends[-1] <= left:
                ends.pop()
            right = last - key % n
            if ends[-1] < right:
                # The top is the last earlier span ending at the top's right
                # end: a later one would sit above it until popped, and
                # popping that one pops the top as well.
                t = ends[-1]
                top = next(k for k in reversed(keys[:keys.index(key)]) if last - k % n == t)
                return LayoutVerdict(False, (_edge_at(order, top // n, t),
                                             _edge_at(order, left, right)))
            ends.append(right)
    return LayoutVerdict(True)


def _edge_at(order, i, j):
    """The edge (u, v), u < v, between the vertices at positions i and j."""
    a, b = order[i], order[j]
    return (a, b) if a < b else (b, a)


def _conflict_masks(edges, pos):
    """Conflict graph over edges as bitmasks: bit j of entry i is set when
    edges i and j interleave under pos, which maps each vertex to its
    position.  Edge j crosses the span (pa, pb) exactly when one of its
    ends lies strictly inside it and the other strictly outside [pa, pb].
    The XOR of the incidence masks at the positions strictly inside holds
    the edges with an odd number of ends there, that is exactly one, and
    removing those incident to pa or pb leaves the crossing ones.  With the
    prefix XORs of the incidence masks that is two lookups per edge, O(n + m)
    per order."""
    incident = [0] * len(pos)
    bit = 1
    for u, v in edges:
        incident[pos[u]] |= bit
        incident[pos[v]] |= bit
        bit <<= 1
    # parity[p]: the edges with an odd number of ends at positions < p.
    parity = list(accumulate(incident, xor, initial=0))
    masks = []
    for u, v in edges:
        pa, pb = pos[u], pos[v]
        if pa > pb:
            pa, pb = pb, pa
        masks.append((parity[pb] ^ parity[pa + 1]) & ~(incident[pa] | incident[pb]))
    return masks


def _first_fit(g: Graph, pos, order) -> Tuple[Dict[Tuple[int, int], int], int]:
    """Edges by (left end ascending, right end descending), each to the
    lowest stack it crosses nothing on; returns the map to stacks 1..k and k.
    pos lists each vertex's position in order.  Each edge is keyed from its
    left end's adjacency list as left * n + (n - 1 - right), the key that
    `check_stack_layout` sorts, and is read back from order once placed.

    Every span already placed starts at or before the new left end pa, so a
    stack's spans still open at pa nest: their right ends are kept as a
    list, innermost on top, and tops[s] caches the top of stack s.

    The first span at pa, its longest, scans the tops.  A top t with
    pa < t < pb crosses (pa, pb), and it is still the true top, since only
    ends <= pa are ever popped and pa never decreases; so the stack is
    skipped with no list access.  A top t >= pb takes the span.  A top
    t <= pa is stale: the stack's ends <= pa are popped, tops[s] is
    refreshed, and the stack is decided as before.  Each such read pops at
    least the stale top, so the lists are read at most m - k times in all.
    The scan records each new prefix maximum of the true tops it passes,
    with the stack that reaches it.

    Every later span at pa is placed with no scan, by this lemma.  Spans
    that share a left end never cross, and one placed earlier at pa is
    longer, so it leaves its stack's top above every later right end at pa.
    So a stack takes a later span (pa, pb) exactly when its true top before
    pa (its least end > pa; an empty stack takes anything) is >= pb, and
    first-fit picks the first stack where the prefix maximum of those tops
    reaches pb.  That is the first record >= pb, found by one bisect, or,
    past the last record, the first span's stack, which reaches every later
    pb.  So a left end opens at most one stack, and its scan reads at most
    1 + s0 tops, s0 being the index of its first span's stack."""
    n = g.n
    last = n - 1
    keys = sorted([pu * n + last - pv for u, nbrs in enumerate(g.adj) for v in nbrs
                   if (pu := pos[u]) < (pv := pos[v])])
    stacks: list = []  # per stack: right ends of its open spans, non-increasing
    tops: list = []  # per stack: its top right end as last seen
    assignment = {}
    left = -1
    for key in keys:
        pa = key // n
        pb = last - key % n
        if pa == left:
            j = bisect_left(reach, pb)
            s = at[j] if j < len(at) else s0
        else:
            left = hi = pa
            reach, at = [], []  # the records: prefix maxima of the tops, and their stacks
            s = 0
            for t in tops:
                if t > pa:
                    if t >= pb:
                        break
                else:
                    ends = stacks[s]
                    while ends and ends[-1] <= pa:
                        ends.pop()
                    if not ends or ends[-1] >= pb:
                        break
                    t = tops[s] = ends[-1]
                if t > hi:
                    hi = t
                    reach.append(t)
                    at.append(s)
                s += 1
            else:
                stacks.append([])
                tops.append(pb)
            s0 = s
        stacks[s].append(pb)
        tops[s] = pb
        u, v = order[pa], order[pb]
        assignment[(u, v) if u < v else (v, u)] = s + 1
    return assignment, len(stacks)


def stack_number_lower_bound(g: Graph) -> int:
    """A certified lower bound on the stack number: 0 without edges, else the
    largest of 1, of 2 when the 3-core is non-empty, and for n >= 4 of
    ceil((m - n) / (n - 3)).  One-stack graphs are the outerplanar graphs,
    which are 2-degenerate, so a graph whose 3-core survives needs two.  A
    k-stack graph has at most n + k(n - 3) edges: the n sides of the spine's
    cycle fit on any stack, and each stack's other edges are non-crossing
    chords of an n-gon, at most n - 3 of them (Bernhart & Kainen, JCTB 1979).
    """
    if g.m == 0:
        return 0
    lb = 1
    if g.n >= 4:
        lb = max(lb, -((g.n - g.m) // (g.n - 3)))
    # Peel vertices of degree <= 2; each is peeled once, when its degree
    # first drops to 2 (or at the start).
    degree = [len(a) for a in g.adj]
    low = [v for v in range(g.n) if degree[v] <= 2]
    peeled = len(low)
    while low:
        for w in g.adj[low.pop()]:
            degree[w] -= 1
            if degree[w] == 2:
                low.append(w)
                peeled += 1
    if peeled < g.n:
        lb = max(lb, 2)
    return lb


def _colorable(masks, k) -> Optional[list]:
    """A colouring of the conflict graph with at most k colours, or None.
    Backtracking over the edges by falling degree; each takes the least free
    colour first and at most one colour above those already used, so the
    colouring found for given masks and k is always the same.  held[c] is
    the mask of the edges holding colour c, so colour c is free for edge i
    when masks[i] & held[c] is 0."""
    m = len(masks)
    degree = [-mask.bit_count() for mask in masks]
    order = sorted(range(m), key=degree.__getitem__)
    colors = [0] * m
    held = [0] * (k + 1)

    def place(idx, top):
        if idx == m:
            return True
        i = order[idx]
        conflicts = masks[i]
        bit = 1 << i
        # Colours 1..top + 1, capped at k; top never exceeds k.
        for c in range(1, top + 2 if top < k else k + 1):
            if not conflicts & held[c]:
                held[c] |= bit
                colors[i] = c
                if place(idx + 1, c if c > top else top):
                    return True
                held[c] ^= bit
        return False

    return colors if place(0, 0) else None


def exact_stack_number(g: Graph) -> Tuple[int, StackLayout]:
    """Minimum stacks over all vertex orders (first vertex pinned, reversals
    pruned), with the first order, in enumeration order, that reaches it,
    coloured by `_colorable` at that minimum.  Each order is asked whether
    its conflict graph colours with one colour fewer than the best so far;
    one that does is coloured at lb = `stack_number_lower_bound(g)`,
    lb + 1, ... until it succeeds, and the search stops once best = lb."""
    if g.n > EXACT_STACK_VERTEX_BUDGET:
        raise CapacityError(
            f"exact stack number refuses n={g.n} > {EXACT_STACK_VERTEX_BUDGET}"
        )
    edges = g.edges()
    if not edges:
        return 0, StackLayout(order=tuple(range(g.n)), assignment={}, k=0)
    lb = stack_number_lower_bound(g)
    best = None
    for perm in permutations(range(1, g.n)):
        if perm[0] > perm[-1]:
            continue
        order = (0,) + perm
        masks = _conflict_masks(edges, {v: i for i, v in enumerate(order)})
        if best is not None and _colorable(masks, best.k - 1) is None:
            continue
        k = lb
        while (colors := _colorable(masks, k)) is None:
            k += 1
        best = StackLayout(order=order, assignment=dict(zip(edges, colors)), k=k)
        if k == lb:
            break
    return best.k, best


def layout_from_decomposition(g: Graph, td: TreeDecomposition) -> StackLayout:
    """`_layout` of a decomposition, which must pass `check_tree_decomposition`."""
    report = check_tree_decomposition(g, td)
    if not report.valid:
        raise PreconditionError(f"invalid tree decomposition: {report.first_failure}")
    return _layout(g, td)


def _layout(g: Graph, td: TreeDecomposition) -> StackLayout:
    """Heuristic layout from a decomposition already checked: vertex order
    is the first-visit order of a DFS over the decomposition tree (root =
    largest bag, children ascending); edges go to stacks by `_first_fit`,
    whose order packs nesting chains into one stack."""
    neigh = [[] for _ in td.bags]
    for a, b in td.edges:
        neigh[a].append(b)
        neigh[b].append(a)
    root = max(range(len(td.bags)), key=lambda i: (len(td.bags[i]), -i))
    pos = [-1] * g.n
    order = []
    stack = [(root, -1)]
    # The checked index graph is a tree: a node's other neighbours are its
    # children, each pushed once, and every vertex lies in some bag.
    while stack:
        node, parent = stack.pop()
        for v in sorted(td.bags[node]):
            if pos[v] < 0:
                pos[v] = len(order)
                order.append(v)
        for child in sorted(neigh[node], reverse=True):
            if child != parent:
                stack.append((child, node))

    assignment, k = _first_fit(g, pos, order)
    return StackLayout(order=tuple(order), assignment=assignment, k=k)
