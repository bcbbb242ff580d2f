"""Subdivision constructions with machine-checkable growth certificates,
strong-product embedding verification, degree-3 expansion, and minor-map
contraction."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Dict, Optional, Tuple

from .errors import CapacityError, ParseError, PreconditionError, RangeError
from .graphs import Graph, _within_budget, bfs_distances, is_tree, json_int, json_ints, minor

SUBDIVISION_VERTEX_BUDGET = 500_000
SUPERLINEAR_SCAN_BUDGET = 1_000_000
_SCAN_REFUSAL = "f(r) < 2*r*m + n for all r <= {}; f is not superlinear enough"


@dataclass(frozen=True)
class HostEmbedding:
    """Placement of a graph inside host_tree boxed with a k-clique: each
    vertex maps injectively to (tree node, copy index in [1,k])."""

    host_tree: Graph
    root: int
    k: int
    vertex_map: Dict[int, Tuple[int, int]]

    def to_json_dict(self) -> dict:
        return {
            "tree_edges": [list(e) for e in self.host_tree.edges()],
            "tree_n": self.host_tree.n,
            "root": self.root,
            "k": self.k,
            "map": [
                {"v": v, "node": node, "copy": copy}
                for v, (node, copy) in sorted(self.vertex_map.items())
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "HostEmbedding":
        """Inverse of `to_json_dict`; without "tree_n" the tree has the
        nodes up to the largest edge end.  Every number must be a JSON
        integer, each tree edge a pair and each map vertex listed once
        (ParseError)."""
        edges = [tuple(json_ints(e, "tree edge", 2)) for e in data["tree_edges"]]
        if "tree_n" in data:
            n = json_int(data["tree_n"], "tree_n")
        else:
            n = 1 + max((max(e) for e in edges), default=0)
        tree = Graph(n, edges)
        vmap = {}
        for d in data["map"]:
            v = json_int(d["v"], "map v")
            if v in vmap:
                raise ParseError(f"malformed map: vertex {v} listed twice")
            vmap[v] = (json_int(d["node"], "map node"), json_int(d["copy"], "map copy"))
        return HostEmbedding(host_tree=tree, root=json_int(data["root"], "root"),
                             k=json_int(data["k"], "k"), vertex_map=vmap)


@dataclass(frozen=True)
class EmbeddingVerdict:
    valid: bool
    first_failure: Optional[str] = None


def check_product_embedding(g: Graph, emb: HostEmbedding) -> EmbeddingVerdict:
    """Valid iff the map is injective on exactly the vertices of g and every
    edge of g maps to a strong-product adjacency of host_tree boxed with
    K_k: tree nodes equal (with distinct copies) or adjacent."""
    if not is_tree(emb.host_tree):
        raise PreconditionError("embedding host must be a tree")
    emb.host_tree._check_vertex(emb.root)
    if emb.k < 1:
        raise RangeError(f"copies per node must be >= 1, got {emb.k}")
    for v in range(g.n):
        if v not in emb.vertex_map:
            return EmbeddingVerdict(False, f"vertex {v} has no image")
    images = set()
    for v, (node, copy) in emb.vertex_map.items():
        if not (0 <= v < g.n):
            return EmbeddingVerdict(False, f"vertex {v} is not in the graph")
        if not (0 <= node < emb.host_tree.n):
            return EmbeddingVerdict(False, f"vertex {v} maps to missing tree node {node}")
        if not (1 <= copy <= emb.k):
            return EmbeddingVerdict(False, f"vertex {v} maps to copy {copy} outside [1,{emb.k}]")
        if (node, copy) in images:
            return EmbeddingVerdict(False, f"image ({node},{copy}) used twice")
        images.add((node, copy))
    # The map is injective by now, so an edge within one tree node joins
    # distinct copies and needs no test.
    for u, v in g.edges():
        nu, nv = emb.vertex_map[u][0], emb.vertex_map[v][0]
        if nu != nv and not emb.host_tree.has_edge(nu, nv):
            return EmbeddingVerdict(
                False, f"edge ({u},{v}) maps to non-adjacent tree nodes {nu},{nv}"
            )
    return EmbeddingVerdict(True)


@dataclass(frozen=True)
class SubdivisionRecord:
    """A built subdivision: the base graph, the per-edge path length (in
    edges), and the result.  Host subdivisions also record the per-edge
    root-depth gamma, the deep-edge counts, the certified path-scale table
    and epsilon; uniform ones record the common subdivision count."""

    base: Graph
    lengths: Dict[Tuple[int, int], int]
    result: Graph
    gamma: Optional[Dict[Tuple[int, int], int]] = None
    deep_edge_counts: Optional[Tuple[int, ...]] = None
    scale_table: Optional[Tuple[int, ...]] = None
    epsilon: Optional[Fraction] = None
    uniform_subdivisions: Optional[int] = None

    def to_json_dict(self) -> dict:
        data = {
            "base_n": self.base.n,
            "base_edges": [list(e) for e in self.base.edges()],
            "lengths": [[u, v, l] for (u, v), l in sorted(self.lengths.items())],
            "result_n": self.result.n,
            "result_m": self.result.m,
        }
        if self.gamma is not None:
            data["gamma"] = [[u, v, d] for (u, v), d in sorted(self.gamma.items())]
            data["deep_edge_counts"] = list(self.deep_edge_counts)
            data["scale_table"] = list(self.scale_table)
            data["epsilon"] = str(self.epsilon)
        if self.uniform_subdivisions is not None:
            data["uniform_subdivisions"] = self.uniform_subdivisions
        return data


def subdivide(g: Graph, lengths: Dict[Tuple[int, int], int]) -> Graph:
    """Replace each edge (u,v), u < v, by an internally disjoint path of
    lengths[(u,v)] edges; internal vertices are appended after the originals
    in sorted edge order."""
    edges = g.edges()
    if set(lengths) != set(edges):
        raise PreconditionError("path lengths must cover exactly the edges")
    total = g.n + sum(lengths[e] - 1 for e in edges)
    if total > SUBDIVISION_VERTEX_BUDGET:
        raise CapacityError(
            f"subdivision would have {total} vertices (budget {SUBDIVISION_VERTEX_BUDGET})"
        )
    new_edges = []
    next_id = g.n
    for u, v in edges:
        length = lengths[(u, v)]
        if length < 1:
            raise RangeError(f"path length for ({u},{v}) must be >= 1, got {length}")
        prev = u
        for _ in range(length - 1):
            new_edges.append((prev, next_id))
            prev = next_id
            next_id += 1
        new_edges.append((prev, v))
    return Graph(next_id, new_edges)


def host_subdivision_plan(g: Graph, emb: HostEmbedding, epsilon):
    """Certificate data without building the result: per-edge root depth
    gamma, the count ell(i) of edges deeper than i, and the smallest integer
    scale table with scale[n_T] = 1 and
    epsilon * scale[i] >= 2 * scale[i+1] * ell(i) + |V(g)| for all i.
    Each edge gets a path of length 2 * scale[gamma(e)].  The levels are
    walked from the deepest edge's up with a running vertex count; every
    edge adds at least one vertex, so the count only grows, and it is a
    CapacityError as soon as it passes SUBDIVISION_VERTEX_BUDGET."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise RangeError(f"epsilon must be positive, got {epsilon}")
    verdict = check_product_embedding(g, emb)
    if not verdict.valid:
        raise PreconditionError(f"invalid embedding: {verdict.first_failure}")
    if g.m < 1:
        raise PreconditionError("host subdivision needs at least one edge")
    depth = bfs_distances(emb.host_tree, emb.root)
    gamma = {}
    for u, v in g.edges():
        gamma[(u, v)] = min(depth[emb.vertex_map[u][0]], depth[emb.vertex_map[v][0]])
    n_t = emb.host_tree.n
    at_depth = [0] * n_t
    for d in gamma.values():
        at_depth[d] += 1
    deepest = max(gamma.values())
    ell = [0] * n_t
    scale = [1] * (n_t + 1)
    projected = g.n
    for i in range(deepest, -1, -1):
        need = Fraction(2 * scale[i + 1] * ell[i] + g.n, epsilon)
        scale[i] = math.ceil(need)
        projected += at_depth[i] * (2 * scale[i] - 1)
        if projected > SUBDIVISION_VERTEX_BUDGET:
            # The count grows like (n/epsilon)^depth and may pass the 4300
            # digits that str() converts, so the message does not print it.
            raise CapacityError(
                f"host subdivision projects more than {SUBDIVISION_VERTEX_BUDGET} "
                "vertices; increase epsilon"
            )
        if i:
            ell[i - 1] = ell[i] + at_depth[i]
    # Below the deepest edge's level ell is 0, so all share its scale.
    scale[deepest + 1:n_t] = [scale[deepest]] * (n_t - 1 - deepest)
    lengths = {e: 2 * scale[d] for e, d in gamma.items()}
    return gamma, tuple(ell), tuple(scale), lengths, projected


def subdivide_in_host(g: Graph, emb: HostEmbedding, epsilon) -> SubdivisionRecord:
    """Build the host-guided subdivision.  Its growth certificate
    f(r) <= (k * max_degree + epsilon) * r + 1 is neither checked nor
    assumed here: the t5 suite (`harness`) checks it with
    `verify_growth_bound`, and `growthtw subdivide` writes the record
    unchecked."""
    epsilon = Fraction(epsilon)
    gamma, ell, scale, lengths, _ = host_subdivision_plan(g, emb, epsilon)
    result = subdivide(g, lengths)
    return SubdivisionRecord(
        base=g, lengths=lengths, result=result, gamma=gamma,
        deep_edge_counts=ell, scale_table=scale, epsilon=epsilon,
    )


def subdivide_uniform_superlinear(g: Graph, f: Callable[[int], Fraction]) -> SubdivisionRecord:
    """Uniform subdivision with growth at most f: find the least ell with
    f(ell) >= 2 * ell * m + n and subdivide every edge 2 * ell times.  f must
    be nondecreasing and satisfy f(r) >= max_degree * r + 1 (checked up to
    ell, violations named); f below 2 * r * m + n at every radius up to
    SUPERLINEAR_SCAN_BUDGET is refused."""
    if g.n == 0:
        raise PreconditionError("cannot subdivide the empty graph")
    delta = g.max_degree()
    m, n = g.m, g.n
    ell = None
    for r in range(1, SUPERLINEAR_SCAN_BUDGET + 1):
        value = Fraction(f(r))
        if value < delta * r + 1:
            # f(r) itself may have more digits than Python prints.
            raise PreconditionError(f"f({r}) < max_degree * r + 1 = {delta * r + 1}")
        if value >= 2 * r * m + n:
            ell = r
            break
    if ell is None:
        raise PreconditionError(_SCAN_REFUSAL.format(SUPERLINEAR_SCAN_BUDGET))
    # Monotonicity spot check past the threshold.
    prev = Fraction(f(1))
    for r in range(2, ell + n + 1):
        cur = Fraction(f(r))
        if cur < prev:
            raise PreconditionError(f"f is not nondecreasing at r={r}")
        prev = cur
    lengths = {e: 2 * ell + 1 for e in g.edges()}
    result = subdivide(g, lengths)
    return SubdivisionRecord(
        base=g, lengths=lengths, result=result, uniform_subdivisions=2 * ell,
    )


def subdivide_uniform_polynomial(g: Graph, coeffs) -> SubdivisionRecord:
    """`subdivide_uniform_superlinear` for the polynomial f whose
    coefficients come highest degree first, evaluated by Horner's rule.  Two
    bounds that the scan could only refuse are refused before it runs:
    - f(r) = a*r + b with a <= 2m and a + b < 2m + n: f(r) - 2rm - n never
      grows with r, so f reaches 2rm + n at some radius only if at r = 1;
    - with f = f+ - f-, both parts of nonnegative coefficients and B the
      scan budget: f(1) >= delta + 1, f+'(1) - f-'(B) >= delta, and
      f+(r) - f-(1) < 2rm + n at r = 1 and at r = B.  On [1, B] f' >=
      f+'(1) - f-'(B) >= delta, so f(r) >= delta*r + 1, and f(r) <= f+(r) -
      f-(1), whose excess over 2rm + n is convex and negative at both ends.
      So the scan would end at its budget, with this message.  f itself
      need not be convex there.  With no negative coefficient, f- = 0.
    The budget and the scan are this module's globals, read when called."""
    coeffs = list(coeffs)
    m, n = g.m, g.n
    a, b = ([0, 0] + coeffs)[-2:]
    if not any(coeffs[:-2]) and a <= 2 * m and a + b < 2 * m + n:
        raise PreconditionError(
            f"f(r) = {a}*r + {b} never reaches 2*r*m + n (m = {m}, n = {n})")

    def value(cs, r):
        total = Fraction(0)
        for coef in cs:
            total = total * r + coef
        return total

    def slope(cs, r):
        return value([(len(cs) - 1 - i) * coef for i, coef in enumerate(cs[:-1])], r)

    budget, delta = SUPERLINEAR_SCAN_BUDGET, g.max_degree()
    up, down = [max(coef, 0) for coef in coeffs], [max(-coef, 0) for coef in coeffs]
    if (value(coeffs, 1) >= delta + 1 and slope(up, 1) - slope(down, budget) >= delta
            and all(value(up, r) - value(down, 1) < 2 * r * m + n for r in (1, budget))):
        raise PreconditionError(_SCAN_REFUSAL.format(budget))
    return subdivide_uniform_superlinear(g, lambda r: value(coeffs, r))


def expand_to_degree3(g: Graph) -> Tuple[Graph, Dict[int, int]]:
    """Split every vertex v of degree >= 4 into a path of deg(v) copies whose
    i-th copy inherits the edge to v's i-th neighbour (ascending); others keep
    one copy.  v's copies are first[v] .. first[v + 1] - 1 for the prefix sums
    `first` of the copy counts, whose total is refused past the vertex budget
    before anything of size n is built.  Returns the new graph and the map
    from new vertices back to originals; contracting the map recovers g."""
    adj = g.adj
    total = sum(map(_copies, adj))
    _within_budget(total)
    first = list(accumulate(map(_copies, adj), initial=0))

    def holder(v: int, w: int) -> int:  # the copy of v that holds the edge to w
        return first[v] + bisect_left(adj[v], w) if len(adj[v]) > 3 else first[v]

    edges = [(x, x + 1) for v in range(g.n) for x in range(first[v], first[v + 1] - 1)]
    edges += [(holder(u, v), holder(v, u)) for u, v in g.edges()]
    minor_map = {x: v for v in range(g.n) for x in range(first[v], first[v + 1])}
    return Graph(total, edges), minor_map


def _copies(nbrs: Tuple[int, ...]) -> int:
    """A vertex's copies in the degree-3 expansion: deg >= 4 of them, else 1."""
    return len(nbrs) if len(nbrs) > 3 else 1


def contract_minor_map(h: Graph, minor_map: Dict[int, int]) -> Graph:
    """The minor (`graphs.minor`) whose vertex i is the preimage of the i-th
    label in sorted order; each preimage must induce a connected subgraph."""
    if set(minor_map) != set(range(h.n)):
        raise PreconditionError("minor map must cover exactly the vertices of h")
    preimages: Dict[int, set] = {}
    for v, lab in minor_map.items():
        preimages.setdefault(lab, set()).add(v)
    return minor(h, {lab: preimages[lab] for lab in sorted(preimages)})
