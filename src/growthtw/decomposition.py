"""Tree-decompositions: boundary-tracking construction from layer-split
separators, validity/width checking, exact treewidth on small instances via
subset dynamic programming over elimination orderings, and grid-minor model
verification.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .errors import (
    CapacityError,
    InvariantViolationError,
    PreconditionError,
    RangeError,
)
from .graphs import (
    Graph,
    bfs_layers,
    components_within,
    is_connected,
    min_eccentricity_vertex,
)
from .separators import median_thin_index

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
        nodes = sorted(data["nodes"], key=lambda d: d["id"])
        if [d["id"] for d in nodes] != list(range(len(nodes))):
            raise RangeError("decomposition node ids must be exactly 0..k-1")
        bags = tuple(frozenset(d["bag"]) for d in nodes)
        edges = tuple((int(a), int(b)) for a, b in data["edges"])
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
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in neigh[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != k:
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
    trace: Dict[int, list] = {v: [] for v in range(g.n)}
    for i, bag in enumerate(td.bags):
        for v in bag:
            trace[v].append(i)
    for v in range(g.n):
        nodes = trace[v]
        if not nodes:
            return fail(f"vertex {v} appears in no bag")
        member = set(nodes)
        reached = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            x = stack.pop()
            for y in neigh[x]:
                if y in member and y not in reached:
                    reached.add(y)
                    stack.append(y)
        if len(reached) != len(member):
            return fail(f"vertex {v}'s bags do not induce a connected subtree")
    for u, v in g.edges():
        if not any(u in bag and v in bag for bag in td.bags):
            return fail(f"edge ({u},{v}) covered by no bag")
    return DecompositionReport(valid=True, width=width)


def build_tree_decomposition(g: Graph, c) -> TreeDecomposition:
    """Boundary-tracking recursion: decompose(X, W) keeps a boundary W
    contained in X separating X\\W from the rest of the graph.  A layer split
    of g[X] is chosen among thin layers to minimise the boundary imbalance
    max(|W&A|, |W&B|); the node's bag is W plus the separator, recursing on
    (A, (W&A)+S) and (B, (W&B)+S).  Sets with |X\\W| <= max(2, ceil(2c))
    become single bags."""
    c = Fraction(c)
    if c < 1:
        raise RangeError(f"c must be >= 1, got {c}")
    if g.n == 0:
        return TreeDecomposition(bags=(frozenset(),), edges=())
    threshold = max(2, math.ceil(2 * c))
    bags: list = []
    tree_edges: list = []

    def add_node(bag) -> int:
        bags.append(frozenset(bag))
        return len(bags) - 1

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * g.n + 1000))
    try:
        root = _decompose(g, frozenset(range(g.n)), frozenset(), c, threshold,
                          add_node, tree_edges)
    finally:
        sys.setrecursionlimit(limit)
    assert root == len(bags) - 1 or len(bags) >= 1
    return TreeDecomposition(bags=tuple(bags), edges=tuple(tree_edges))


def _decompose(g, X, W, c, threshold, add_node, tree_edges) -> int:
    if len(X - W) <= threshold:
        return add_node(X)
    comps = components_within(g, X)
    if len(comps) > 1:
        if W:
            children = [
                _decompose(g, comp, W & comp, c, threshold, add_node, tree_edges)
                for comp in comps
            ]
            root = add_node(W)
            for child in children:
                tree_edges.append((root, child))
            return root
        roots = [
            _decompose(g, comp, frozenset(), c, threshold, add_node, tree_edges)
            for comp in comps
        ]
        for a, b in zip(roots, roots[1:]):
            tree_edges.append((a, b))
        return roots[-1]

    center = min_eccentricity_vertex(g, X)
    layers = bfs_layers(g, center, allowed=X).layers
    p = len(layers) - 1
    split = _choose_split(g, X, W, layers, c)
    if split is None:
        raise InvariantViolationError(
            f"no shrinking split for |X|={len(X)}, |W|={len(W)}, p={p}, "
            f"layer sizes {[len(l) for l in layers]}; c={c} is likely below "
            "the true growth constant"
        )
    a_side, b_side, sep = split
    wa = (W & a_side) | sep
    wb = (W & b_side) | sep
    ra = _decompose(g, a_side, wa, c, threshold, add_node, tree_edges)
    rb = _decompose(g, b_side, wb, c, threshold, add_node, tree_edges)
    root = add_node(W | sep)
    tree_edges.append((root, ra))
    tree_edges.append((root, rb))
    return root


def _choose_split(g, X, W, layers, c):
    """Pick a layer index whose split strictly shrinks both recursion
    measures |side \\ boundary|.  Thin layers are preferred, ranked by
    boundary imbalance, then proximity to the median-thin-prefix index; the
    last resort peels the final layer as a separator."""
    p = len(layers) - 1
    measure = len(X - W)
    sizes = [len(layer) for layer in layers]
    thin = [i for i in range(1, p + 1) if sizes[i] < 2 * c]
    median_j = median_thin_index(thin, p)

    prefix = []
    acc = frozenset()
    for layer in layers:
        acc = acc | layer
        prefix.append(acc)

    def sides(j):
        # A = layers 0..j, B = layers j..p; the separator is layer j.
        return prefix[j], X - prefix[j - 1], layers[j]

    def shrinks(a, b, sep):
        return (len(a - W - sep) < measure) and (len(b - W - sep) < measure)

    candidates = sorted(
        (j for j in thin if j < p),
        key=lambda j: (max(len(W & prefix[j]), len(W & (X - prefix[j - 1]))),
                       abs(j - median_j), j),
    )
    for j in candidates:
        a, b, sep = sides(j)
        if shrinks(a, b, sep):
            return a, b, sep
    # Fallback: any interior layer, thick ones included, nearest the middle.
    for j in sorted(range(1, p), key=lambda j: (abs(j - (p + 1) // 2), j)):
        a, b, sep = sides(j)
        if shrinks(a, b, sep):
            return a, b, sep
    # Peel the last layer: (X, V_p) shrinks the measure whenever V_p leaves W.
    if p >= 1 and (layers[p] - W):
        return X, layers[p], layers[p]
    return None


def exact_treewidth(g: Graph) -> Tuple[int, TreeDecomposition]:
    """Exact treewidth by dynamic programming over vertex subsets keyed by
    elimination prefixes, with the witness rebuilt from backpointers."""
    n = g.n
    if n == 0:
        raise PreconditionError("treewidth is undefined for the empty graph")
    if n > EXACT_TREEWIDTH_VERTEX_BUDGET:
        raise CapacityError(
            f"exact treewidth refuses n={n} > {EXACT_TREEWIDTH_VERTEX_BUDGET}"
        )
    adjm = [0] * n
    for u in range(n):
        for v in g.adj[u]:
            adjm[u] |= 1 << v
    full = (1 << n) - 1
    opt = [0] * (full + 1)
    choice = [0] * (full + 1)
    opt[0] = -1
    for S in range(1, full + 1):
        best = n
        bestv = -1
        T0 = S
        while T0:
            v = (T0 & -T0).bit_length() - 1
            T0 &= T0 - 1
            T = S & ~(1 << v)
            sub = opt[T]
            if sub >= best:
                continue
            q = _elimination_degree(adjm, T, v)
            val = q if q > sub else sub
            if val < best:
                best = val
                bestv = v
        opt[S] = best
        choice[S] = bestv
    width = opt[full]

    # Reconstruct the elimination order (choice[S] was eliminated last in S).
    order = []
    S = full
    while S:
        v = choice[S]
        order.append(v)
        S &= ~(1 << v)
    order.reverse()

    bags = []
    eliminated = 0
    for v in order:
        q_mask = _elimination_neighborhood(adjm, eliminated, v)
        bags.append(frozenset(_bits(q_mask | (1 << v))))
        eliminated |= 1 << v
    position = {v: i for i, v in enumerate(order)}
    edges = []
    for i, v in enumerate(order[:-1]):
        later = [w for w in bags[i] if position[w] > i]
        parent = min((position[w] for w in later), default=i + 1)
        edges.append((i, parent))
    return width, TreeDecomposition(bags=tuple(bags), edges=tuple(edges))


def _elimination_neighborhood(adjm, T: int, v: int) -> int:
    """Vertices outside T+{v} reachable from v by paths internal to T."""
    visited = 1 << v
    frontier = 1 << v
    nbrs = 0
    while frontier:
        fa = 0
        f = frontier
        while f:
            u = (f & -f).bit_length() - 1
            fa |= adjm[u]
            f &= f - 1
        nbrs |= fa
        frontier = fa & T & ~visited
        visited |= frontier
    return nbrs & ~T & ~(1 << v)


def _elimination_degree(adjm, T: int, v: int) -> int:
    return _elimination_neighborhood(adjm, T, v).bit_count()


def _bits(mask: int):
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


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
    """Valid iff the branch sets are nonempty, pairwise disjoint, each
    connected in g, and every consecutive row/column pair is joined by an
    edge."""
    q = model.side
    seen: set = set()
    for i in range(q):
        for j in range(q):
            cell = model.cell(i, j)
            if not cell:
                return ModelVerdict(False, f"branch set ({i},{j}) is empty")
            for v in cell:
                if not (0 <= v < g.n):
                    raise RangeError(f"branch set ({i},{j}) has out-of-range vertex {v}")
            if cell & seen:
                return ModelVerdict(False, f"branch set ({i},{j}) overlaps another")
            seen |= cell
            if not is_connected(g, cell):
                return ModelVerdict(False, f"branch set ({i},{j}) is disconnected")
    for i in range(q):
        for j in range(q - 1):
            if not _sets_joined(g, model.cell(i, j), model.cell(i, j + 1)):
                return ModelVerdict(False, f"no edge between cells ({i},{j}) and ({i},{j + 1})")
            if not _sets_joined(g, model.cell(j, i), model.cell(j + 1, i)):
                return ModelVerdict(False, f"no edge between cells ({j},{i}) and ({j + 1},{i})")
    return ModelVerdict(True)


def _sets_joined(g: Graph, a: frozenset, b: frozenset) -> bool:
    return any(w in b for v in a for w in g.adj[v])
