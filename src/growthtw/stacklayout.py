"""Stack (book) layouts: validity checking, exact stack number on small
graphs, and a decomposition-driven heuristic layout.

Two edges conflict under an order when their endpoints interleave; a layout
is valid when no two edges on the same stack conflict.  Conflicts depend
only on the cyclic order up to reflection, so the exact search fixes the
first vertex and prunes reversed orders; it stops at the first order that
reaches a certified lower bound.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from itertools import permutations
from typing import Dict, Optional, Tuple

from .errors import CapacityError, PreconditionError, StructureError
from .decomposition import TreeDecomposition, check_tree_decomposition
from .graphs import Graph, iter_bits

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


def _interleaves(pa, pb, pc, pd) -> bool:
    """Endpoint positions (pa < pb), (pc < pd): true iff pa < pc < pb < pd or
    pc < pa < pd < pb."""
    return (pa < pc < pb < pd) or (pc < pa < pd < pb)


def check_stack_layout(g: Graph, layout: StackLayout) -> LayoutVerdict:
    """Nesting sweep, one stack at a time, in O(m log m).  A stack's spans are
    sorted by (left, -right) and pushed onto a stack of open spans; before
    each push, open spans whose right end is at or before the new left end
    are popped.  The rest then nest, innermost on top, so the new span
    crosses one of them exactly when it crosses the top: when the top's
    right end lies strictly inside the new span.  first_crossing is the
    first such (top edge, new edge) pair on the lowest-numbered stack that
    has one."""
    if sorted(layout.order) != list(range(g.n)):
        raise StructureError("layout order is not a permutation of the vertices")
    expected = {(u, v) for u, v in g.edges()}
    if set(layout.assignment) != expected:
        raise StructureError("layout assignment does not cover exactly the edges")
    for s in layout.assignment.values():
        if not (1 <= s <= max(layout.k, 1)):
            raise StructureError(f"stack id {s} outside [1,{layout.k}]")
    pos = {v: i for i, v in enumerate(layout.order)}
    by_stack: Dict[int, list] = {}
    for (u, v), s in layout.assignment.items():
        pu, pv = pos[u], pos[v]
        left, right = (pu, pv) if pu < pv else (pv, pu)
        by_stack.setdefault(s, []).append((left, -right, (u, v)))
    for s in sorted(by_stack):
        spans = by_stack[s]
        spans.sort()
        open_spans = []  # (right, edge), right ends non-increasing upwards
        for left, neg_right, e in spans:
            right = -neg_right
            while open_spans and open_spans[-1][0] <= left:
                open_spans.pop()
            if open_spans and open_spans[-1][0] < right:
                return LayoutVerdict(False, (open_spans[-1][1], e))
            open_spans.append((right, e))
    return LayoutVerdict(True)


def _conflict_masks(edges, pos):
    """Conflict graph over edges as bitmasks."""
    spans = [(min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in edges]
    m = len(edges)
    masks = [0] * m
    for i in range(m):
        pa, pb = spans[i]
        for j in range(i + 1, m):
            pc, pd = spans[j]
            if _interleaves(pa, pb, pc, pd):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def _greedy_coloring(masks) -> list:
    colors = [0] * len(masks)
    for i in range(len(masks)):
        used = {colors[j] for j in iter_bits(masks[i]) if j < i}
        c = 1
        while c in used:
            c += 1
        colors[i] = c
    return colors


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
    colouring found for given masks and k is always the same."""
    m = len(masks)
    order = sorted(range(m), key=lambda i: -masks[i].bit_count())
    colors = [0] * m

    def place(idx, top):
        if idx == m:
            return True
        i = order[idx]
        used = {colors[j] for j in iter_bits(masks[i]) if colors[j]}
        for c in range(1, min(k, top + 1) + 1):
            if c not in used:
                colors[i] = c
                if place(idx + 1, max(top, c)):
                    return True
                colors[i] = 0
        return False

    return colors if place(0, 0) else None


def exact_stack_number(g: Graph) -> Tuple[int, StackLayout]:
    """Minimum stacks over all vertex orders.  The first vertex is pinned and
    reversals pruned (conflicts are invariant under rotation and reflection
    of the spine); per order the minimum equals the chromatic number of the
    edge conflict graph.

    The search keeps the first order, in enumeration order, whose chromatic
    number beats every earlier one, coloured by `_colorable` at that number.
    An order is asked once whether it colours with min(best - 1, greedy)
    colours; only if it does is the count stepped down, one colour at a time
    while it still colours, to its chromatic number or to
    lb = `stack_number_lower_bound(g)`.  The search stops at the first order
    that reaches lb.  No order can go below lb, and an order that cannot
    beat the best so far is never recorded, so the result is the one a
    full search over every order, with the exact chromatic number of each,
    returns."""
    if g.n > EXACT_STACK_VERTEX_BUDGET:
        raise CapacityError(
            f"exact stack number refuses n={g.n} > {EXACT_STACK_VERTEX_BUDGET}"
        )
    edges = list(g.edges())
    if not edges:
        return 0, StackLayout(order=tuple(range(g.n)), assignment={}, k=0)
    lb = stack_number_lower_bound(g)
    best_k = len(edges) + 1
    best_layout = None
    for perm in permutations(range(1, g.n)):
        if len(perm) >= 2 and perm[0] > perm[-1]:
            continue
        order = (0,) + perm
        pos = {v: i for i, v in enumerate(order)}
        masks = _conflict_masks(edges, pos)
        k = min(best_k - 1, max(_greedy_coloring(masks)))
        colors = _colorable(masks, k)
        if colors is None:
            continue
        while k > lb and (fewer := _colorable(masks, k - 1)) is not None:
            k, colors = k - 1, fewer
        best_k = k
        best_layout = StackLayout(
            order=order,
            assignment={e: colors[i] for i, e in enumerate(edges)},
            k=k,
        )
        if best_k == lb:
            break
    assert best_layout is not None
    return best_k, best_layout


def layout_from_decomposition(g: Graph, td: TreeDecomposition) -> StackLayout:
    """Heuristic layout: vertex order is the first-visit order of a DFS over
    the decomposition tree (root = largest bag, children ascending); edges
    are assigned first-fit to the lowest conflict-free stack, in order of
    (left end ascending, right end descending), which packs nesting chains
    into one stack.

    That order is the invariant first-fit relies on: every span already on a
    stack starts at or before the new span's left end pa, and one starting
    at pa ends after its right end pb.  So (pa, pb) crosses a stack's content
    exactly when one of its right ends lies strictly between pa and pb, which
    one bisect over the stack's sorted right ends decides."""
    report = check_tree_decomposition(g, td)
    if not report.valid:
        raise PreconditionError(f"invalid tree decomposition: {report.first_failure}")
    k_nodes = len(td.bags)
    neigh = [[] for _ in range(k_nodes)]
    for a, b in td.edges:
        neigh[a].append(b)
        neigh[b].append(a)
    root = max(range(k_nodes), key=lambda i: (len(td.bags[i]), -i))
    order = []
    placed = set()
    visited = [False] * k_nodes
    stack = [root]
    # The checked index graph is a tree, so each node is pushed once, and
    # every vertex lies in some bag.
    while stack:
        node = stack.pop()
        visited[node] = True
        for v in sorted(td.bags[node]):
            if v not in placed:
                placed.add(v)
                order.append(v)
        for child in sorted(neigh[node], reverse=True):
            if not visited[child]:
                stack.append(child)

    pos = {v: i for i, v in enumerate(order)}
    spans = sorted(
        (min(pos[u], pos[v]), -max(pos[u], pos[v]), (u, v)) for u, v in g.edges()
    )
    ends: list = []  # per stack: sorted right ends of the spans placed on it
    assignment = {}
    for pa, neg_pb, e in spans:
        pb = -neg_pb
        for s, stack_ends in enumerate(ends):
            i = bisect_right(stack_ends, pa)
            if i < len(stack_ends) and stack_ends[i] < pb:
                continue  # a right end strictly inside (pa, pb): a crossing
            insort(stack_ends, pb)
            break
        else:
            s = len(ends)
            ends.append([pb])
        assignment[e] = s + 1
    return StackLayout(order=tuple(order), assignment=assignment, k=len(ends))
