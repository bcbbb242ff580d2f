import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import growthtw.constructions as constructions_mod
import growthtw.graphs as graphs_mod
from growthtw.constructions import (
    HostEmbedding,
    check_product_embedding,
    contract_minor_map,
    expand_to_degree3,
    host_subdivision_plan,
    subdivide,
    subdivide_in_host,
    subdivide_uniform_superlinear,
)
from growthtw.errors import (
    CapacityError,
    GrowthTWError,
    ModelError,
    ParseError,
    PreconditionError,
    RangeError,
)
from growthtw.generators import (
    complete,
    complete_binary_tree,
    cycle,
    grid,
    path,
    random_cubic,
    star,
)
from growthtw.graphs import Graph, is_tree
from growthtw.growth import growth_profile, verify_growth_bound


def identity_embedding(tree, root=0, k=1):
    return HostEmbedding(
        host_tree=tree, root=root, k=k,
        vertex_map={v: (v, 1) for v in range(tree.n)},
    )


# ---------------------------------------------------------------- subdivide

def test_subdivide_basic():
    g = path(2)
    res = subdivide(g, {(0, 1): 4})
    assert res == Graph(5, [(0, 2), (2, 3), (3, 4), (4, 1)])


def test_subdivide_length_one_is_identity():
    g = cycle(5)
    assert subdivide(g, {e: 1 for e in g.edges()}) == g


def test_subdivide_validation():
    g = path(3)
    with pytest.raises(PreconditionError):
        subdivide(g, {(0, 1): 2})  # missing an edge
    with pytest.raises(RangeError):
        subdivide(g, {(0, 1): 0, (1, 2): 1})
    with pytest.raises(CapacityError):
        subdivide(g, {(0, 1): 10**7, (1, 2): 1})


def test_subdivide_round_trip_via_suppression():
    g = grid(3)
    rng = random.Random(4)
    lengths = {e: rng.randint(1, 5) for e in g.edges()}
    res = subdivide(g, lengths)
    assert res.n == g.n + sum(l - 1 for l in lengths.values())
    assert suppress_degree_two(res, g.n) == g


def suppress_degree_two(res, n):
    """The base graph of a subdivision whose original vertices are 0..n-1:
    follow each chain of degree-2 subdivision vertices to its far end."""
    edges = set()
    for v in range(n):
        for w in res.adj[v]:
            prev, cur = v, w
            while cur >= n:
                assert res.degree(cur) == 2
                prev, cur = cur, next(x for x in res.adj[cur] if x != prev)
            edges.add((min(v, cur), max(v, cur)))
    return Graph(n, edges)


# ---------------------------------------------------------------- embeddings

def test_identity_embedding_checks_out():
    tree = complete_binary_tree(7)
    assert check_product_embedding(tree, identity_embedding(tree)).valid


def test_embedding_rejections():
    tree = path(3)
    g = path(3)
    # Non-adjacent tree nodes.
    emb = HostEmbedding(host_tree=tree, root=0, k=1,
                        vertex_map={0: (0, 1), 1: (2, 1), 2: (1, 1)})
    assert "non-adjacent" in check_product_embedding(g, emb).first_failure
    # Duplicate image.
    emb = HostEmbedding(host_tree=tree, root=0, k=1,
                        vertex_map={0: (0, 1), 1: (1, 1), 2: (1, 1)})
    assert "used twice" in check_product_embedding(g, emb).first_failure
    # Missing vertex.
    emb = HostEmbedding(host_tree=tree, root=0, k=1, vertex_map={0: (0, 1)})
    assert "no image" in check_product_embedding(g, emb).first_failure
    # Host must be a tree.
    with pytest.raises(PreconditionError):
        check_product_embedding(g, identity_embedding(cycle(3)))


def test_embedding_same_node_needs_distinct_copies():
    tree = path(2)
    g = path(2)
    emb = HostEmbedding(host_tree=tree, root=0, k=2,
                        vertex_map={0: (0, 1), 1: (0, 2)})
    assert check_product_embedding(g, emb).valid
    bad = HostEmbedding(host_tree=tree, root=0, k=1,
                        vertex_map={0: (0, 1), 1: (0, 1)})
    # Both ends of the edge at one product vertex: the map is not injective.
    assert check_product_embedding(g, bad).first_failure == "image (0,1) used twice"


def test_embedding_names_each_bad_image():
    tree, g = path(2), path(2)

    def verdict(vertex_map, k=1):
        emb = HostEmbedding(host_tree=tree, root=0, k=k, vertex_map=vertex_map)
        return check_product_embedding(g, emb).first_failure

    assert verdict({0: (0, 1), 1: (2, 1)}) == "vertex 1 maps to missing tree node 2"
    assert verdict({0: (-1, 1), 1: (1, 1)}) == "vertex 0 maps to missing tree node -1"
    assert verdict({0: (0, 1), 1: (1, 2)}) == "vertex 1 maps to copy 2 outside [1,1]"
    assert verdict({0: (0, 0), 1: (1, 1)}) == "vertex 0 maps to copy 0 outside [1,1]"
    # A map entry for no vertex of g, even with a free image (0,2).
    for v in (7, 2, -1):
        assert verdict({0: (0, 1), 1: (1, 1), v: (0, 2)}, k=2) == f"vertex {v} is not in the graph"
    with pytest.raises(RangeError, match="copies per node must be >= 1, got 0"):
        verdict({0: (0, 1), 1: (1, 1)}, k=0)


def test_embedding_json_round_trip():
    tree = complete_binary_tree(3)
    emb = identity_embedding(tree)
    again = HostEmbedding.from_json_dict(emb.to_json_dict())
    assert again.host_tree == tree
    assert again.vertex_map == emb.vertex_map
    assert (again.root, again.k) == (emb.root, emb.k)


def test_embedding_json_without_tree_n_ends_at_the_largest_edge_end():
    data = identity_embedding(path(3)).to_json_dict()
    del data["tree_n"]
    assert HostEmbedding.from_json_dict(data).host_tree == path(3)
    data["tree_edges"] = []
    assert HostEmbedding.from_json_dict(data).host_tree == Graph(1)


def test_embedding_json_lists_each_vertex_once():
    data = identity_embedding(path(2)).to_json_dict()
    data["map"].append({"v": 1, "node": 0, "copy": 1})
    with pytest.raises(ParseError, match=r"^malformed map: vertex 1 listed twice$"):
        HostEmbedding.from_json_dict(data)


@pytest.mark.parametrize("edges", [[[0, 1, 1]], [[0]], [[0, 1.0]], [[False, 1]]])
def test_embedding_json_edges_must_be_integer_pairs(edges):
    data = identity_embedding(path(2)).to_json_dict()
    data["tree_edges"] = edges
    with pytest.raises(GrowthTWError):
        HostEmbedding.from_json_dict(data)


# ---------------------------------------------------------------- host subdivision

def test_host_plan_single_edge():
    # Worked by hand: one edge at depth 0, so no edge is strictly deeper than
    # any level and ell is all zeros; the scale table at epsilon 1 is
    # (2, 2, 1) and the edge becomes a 4-edge path.
    g = path(2)
    gamma, ell, scale, lengths, projected = host_subdivision_plan(
        g, identity_embedding(g), 1
    )
    assert gamma == {(0, 1): 0}
    assert ell == (0, 0)
    assert scale == (2, 2, 1)
    assert lengths == {(0, 1): 4}
    assert projected == 5


def test_host_build_single_edge():
    g = path(2)
    rec = subdivide_in_host(g, identity_embedding(g), 1)
    assert rec.result.n == 5
    assert is_tree(rec.result)
    assert verify_growth_bound(rec.result, lambda r: Fraction(2 * r + 1)).holds


def test_host_plan_inequality_everywhere():
    # The defining inequality eps*scale[i] >= 2*scale[i+1]*ell(i) + n must
    # hold at every depth, for assorted random embeddings into small trees.
    rng = random.Random(21)
    for _ in range(20):
        tn = rng.randint(2, 6)
        tree = complete_binary_tree(tn)
        k = rng.randint(1, 3)
        slots = [(node, copy) for node in range(tn) for copy in range(1, k + 1)]
        rng.shuffle(slots)
        gn = rng.randint(2, len(slots))
        vmap = {v: slots[v] for v in range(gn)}
        emb = HostEmbedding(host_tree=tree, root=0, k=k, vertex_map=vmap)
        # Any edge set consistent with the embedding.
        edges = []
        for u in range(gn):
            for v in range(u + 1, gn):
                nu, nv = vmap[u][0], vmap[v][0]
                if (nu == nv or tree.has_edge(nu, nv)) and rng.random() < 0.7:
                    edges.append((u, v))
        if not edges:
            continue
        g = Graph(gn, edges)
        eps = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        gamma, ell, scale, lengths, projected = host_subdivision_plan(g, emb, eps)
        for i in range(tn):
            assert eps * scale[i] >= 2 * scale[i + 1] * ell[i] + g.n
        assert all(lengths[e] == 2 * scale[gamma[e]] for e in lengths)


def test_host_certificate_on_tree_with_copies():
    # P_4 doubled into P_2 host (k=2): certificate (k*Delta + eps)*r + 1.
    host = path(2)
    g = path(4)
    emb = HostEmbedding(host_tree=host, root=0, k=2,
                        vertex_map={0: (0, 1), 1: (0, 2), 2: (1, 1), 3: (1, 2)})
    rec = subdivide_in_host(g, emb, 1)
    bound_slope = 2 * g.max_degree() + 1
    assert verify_growth_bound(rec.result, lambda r: Fraction(bound_slope * r + 1)).holds


def test_host_requires_edges_and_positive_epsilon():
    g = Graph(2)
    emb = HostEmbedding(host_tree=path(2), root=0, k=1,
                        vertex_map={0: (0, 1), 1: (1, 1)})
    with pytest.raises(PreconditionError):
        host_subdivision_plan(g, emb, 1)
    with pytest.raises(RangeError):
        host_subdivision_plan(path(2), identity_embedding(path(2)), 0)


def test_host_plan_refuses_an_invalid_embedding():
    emb = HostEmbedding(host_tree=path(2), root=0, k=1, vertex_map={0: (0, 1)})
    with pytest.raises(PreconditionError, match="^invalid embedding: vertex 1 has no image$"):
        host_subdivision_plan(path(2), emb, 1)


@pytest.mark.parametrize("g, emb", [
    # path(800) on the host path 0-1-...-799 rooted at 0 is 799 levels deep,
    # so the whole scale table at epsilon 1e-1000 would have about 800,000
    # digits in its top entry.  The deepest edge alone passes the budget.
    (path(800), identity_embedding(path(800))),
    # One edge at the root of a 5000-node host path: the 4998 levels below
    # it would each hold a 1000-digit scale.
    (path(2), HostEmbedding(host_tree=path(5000), root=0, k=1,
                            vertex_map={0: (0, 1), 1: (1, 1)})),
])
def test_host_plan_refuses_past_the_budget_as_it_builds(g, emb):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="^host subdivision projects more than 500000 "
                                                "vertices; increase epsilon$"):
            host_subdivision_plan(g, emb, Fraction(1, 10 ** 1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------- uniform subdivision

def test_uniform_k4_quadratic():
    # Hand-checked: the least ell with ell^2+3ell+1 >= 12ell+4 is 10, giving
    # 20 subdivision vertices per edge and 4 + 6*20 = 124 vertices total.
    rec = subdivide_uniform_superlinear(complete(4), lambda r: Fraction(r * r + 3 * r + 1))
    assert rec.uniform_subdivisions == 20
    assert rec.result.n == 124
    assert all(l == 21 for l in rec.lengths.values())
    profile = growth_profile(rec.result, rec.result.n)
    assert all(profile.f(r) <= r * r + 3 * r + 1 for r in range(1, rec.result.n + 1))


def test_uniform_linear_bound_fails_precondition():
    with pytest.raises(PreconditionError) as exc:
        subdivide_uniform_superlinear(complete(4), lambda r: Fraction(2 * r))
    assert "r" in str(exc.value) and "max_degree" in str(exc.value)


def test_uniform_two_vertices():
    rec = subdivide_uniform_superlinear(path(2), lambda r: Fraction(r * r + r + 1))
    # Least ell with ell^2+ell+1 >= 2*ell+2 is 2, so the edge becomes a
    # 5-edge path on 6 vertices.
    assert rec.uniform_subdivisions == 4
    assert rec.result == Graph(6, [(0, 2), (2, 3), (3, 4), (4, 5), (5, 1)])


def test_uniform_refuses_the_empty_graph():
    with pytest.raises(PreconditionError, match="^cannot subdivide the empty graph$"):
        subdivide_uniform_superlinear(Graph(0), lambda r: Fraction(r * r + 1))


def test_uniform_rejects_decreasing_bound():
    with pytest.raises(PreconditionError):
        subdivide_uniform_superlinear(path(2), lambda r: Fraction(100 - r if r > 1 else 3))


def test_uniform_scan_budget(monkeypatch):
    monkeypatch.setattr(constructions_mod, "SUPERLINEAR_SCAN_BUDGET", 200)
    with pytest.raises(PreconditionError, match="for all r <= 200;"):
        subdivide_uniform_superlinear(complete(4), lambda r: Fraction(3 * r + 1))


# ---------------------------------------------------------------- degree-3 expansion

@pytest.mark.parametrize("g", [star(6), complete(5), grid(3), cycle(7), path(4)])
def test_expand_round_trip(g):
    h, minor_map = expand_to_degree3(g)
    assert h.max_degree() <= 3
    assert contract_minor_map(h, minor_map) == g


def test_expand_star_shape():
    g = star(6)  # center degree 5
    h, minor_map = expand_to_degree3(g)
    assert h.n == 5 + 5  # center -> path of 5, leaves unchanged
    center_ids = [v for v, lab in minor_map.items() if lab == 0]
    assert len(center_ids) == 5
    assert all(h.degree(v) <= 3 for v in center_ids)


def test_expand_low_degree_is_identity():
    # Degree at most 3 everywhere, degree-3 vertices included: nothing to expand.
    for g in (cycle(6), complete(4), random_cubic(10, 1)):
        h, minor_map = expand_to_degree3(g)
        assert h == g
        assert minor_map == {v: v for v in range(g.n)}


def slot_dict_expansion(g):
    """The expansion numbered copy by copy while a dict records the copy
    that holds each directed edge: the reference for the prefix sums."""
    slot = {}
    minor_map = {}
    new_edges = []
    next_id = 0
    for v in range(g.n):
        deg = len(g.adj[v])
        if deg <= 3:
            vid = next_id
            next_id += 1
            minor_map[vid] = v
            for w in g.adj[v]:
                slot[(v, w)] = vid
        else:
            ids = list(range(next_id, next_id + deg))
            next_id += deg
            for i, w in enumerate(g.adj[v]):
                minor_map[ids[i]] = v
                slot[(v, w)] = ids[i]
            new_edges.extend(zip(ids, ids[1:]))
    for u, v in g.edges():
        new_edges.append((slot[(u, v)], slot[(v, u)]))
    return Graph(next_id, new_edges), minor_map


def assert_expansion_equals_the_slot_dict(g):
    h, minor_map = expand_to_degree3(g)
    ref_h, ref_map = slot_dict_expansion(g)
    assert h == ref_h
    assert list(minor_map.items()) == list(ref_map.items())


@st.composite
def expansion_cases(draw):
    """A random simple graph on up to 12 vertices, where isolated vertices
    and degrees on both sides of 3/4 all occur."""
    n = draw(st.integers(min_value=1, max_value=12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, draw(st.sets(st.sampled_from(possible))) if possible else [])


@given(expansion_cases())
@settings(max_examples=200, deadline=None)
def test_expand_equals_the_slot_dict_reference(g):
    assert_expansion_equals_the_slot_dict(g)


@pytest.mark.parametrize("g", [complete(k) for k in range(1, 9)] + [
    star(4),  # centre of degree 3 keeps one copy
    star(5),  # centre of degree 4 splits
    Graph(7, [(1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (2, 3), (5, 6)]),  # isolated 0, degrees 3 and 4
])
def test_expand_equals_the_slot_dict_reference_on_cliques_and_boundaries(g):
    assert_expansion_equals_the_slot_dict(g)


def test_expand_refuses_past_the_budget_before_it_builds(monkeypatch):
    # The star's 99,999 leaves and its centre's 99,999 copies pass a vertex
    # budget of 1000.  The copy count is refused before any graph or list of
    # size n is built; a dict of every directed edge would trace about 10 MiB.
    g = star(100_000)
    monkeypatch.setattr(graphs_mod, "VERTEX_BUDGET", 1000)
    built = []
    monkeypatch.setattr(constructions_mod, "Graph", lambda *args: built.append(args))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"^graph would have 199998 vertices \(budget 1000\)$"):
            expand_to_degree3(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built == []
    assert peak < 1 << 20


def test_contract_requires_connected_preimages():
    h = path(4)
    with pytest.raises(ModelError):
        contract_minor_map(h, {0: 0, 1: 1, 2: 0, 3: 2})
    with pytest.raises(PreconditionError):
        contract_minor_map(h, {0: 0, 1: 1})


def test_contract_plain_minor():
    # Contract one endpoint pair of C_4 down to a triangle.
    h = cycle(4)
    assert contract_minor_map(h, {0: 0, 1: 1, 2: 2, 3: 0}) == cycle(3)
