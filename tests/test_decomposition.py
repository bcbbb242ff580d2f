import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import growthtw.decomposition as decomposition_mod
from growthtw.constructions import expand_to_degree3
from growthtw.decomposition import (
    MinorModel,
    TreeDecomposition,
    build_tree_decomposition,
    check_tree_decomposition,
    exact_treewidth,
    grid_identity_model,
    verify_grid_minor_model,
)
from growthtw.errors import (
    CapacityError,
    GrowthTWError,
    InvariantViolationError,
    PreconditionError,
)
from growthtw.generators import complete, complete_binary_tree, cycle, grid, path, random_cubic, star
from growthtw.graphs import Graph, components_within
from growthtw.growth import growth_constant


# ---------------------------------------------------------------- checker

def td(bags, edges):
    return TreeDecomposition(bags=tuple(map(frozenset, bags)), edges=tuple(edges))


def test_checker_accepts_path_decomposition():
    g = path(4)
    ok = td([{0, 1}, {1, 2}, {2, 3}], [(0, 1), (1, 2)])
    report = check_tree_decomposition(g, ok)
    assert report.valid and report.width == 1


def test_checker_rejects_non_tree():
    g = path(3)
    cycle_shape = td([{0, 1}, {1, 2}, {0, 1, 2}], [(0, 1), (1, 2), (2, 0)])
    assert "tree needs" in check_tree_decomposition(g, cycle_shape).first_failure
    forest = td([{0, 1}, {1, 2}], [])
    assert "needs 1 edges" in check_tree_decomposition(g, forest).first_failure
    for a, b in [(0, 2), (-1, 0), (1, 1)]:
        report = check_tree_decomposition(g, td([{0, 1}, {1, 2}], [(a, b)]))
        assert report.first_failure == f"bad tree edge ({a},{b})"
    # Two edges on three nodes, but both join nodes 1 and 2.
    split = td([{0, 1}, {1, 2}, {1, 2}], [(1, 2), (2, 1)])
    assert check_tree_decomposition(g, split).first_failure == "index graph is disconnected"


def test_checker_names_an_out_of_range_bag_vertex():
    bad = td([{0, 1}, {1, 2, 7}], [(0, 1)])
    report = check_tree_decomposition(path(3), bad)
    assert not report.valid
    assert report.first_failure == "bag 1 contains out-of-range vertex 7"


def test_checker_rejects_uncovered_edge():
    g = path(3)
    bad = td([{0, 1}, {2}], [(0, 1)])
    assert "covered by no bag" in check_tree_decomposition(g, bad).first_failure


def test_checker_names_an_edge_whose_ends_share_no_bag():
    # 0 lies in three bags and 3 in two, all valid subtrees, but never together.
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 5), (2, 3), (3, 4)])
    bad = td([{0, 1}, {0, 5}, {0, 2}, {2, 3}, {3, 4}], [(0, 1), (1, 2), (2, 3), (3, 4)])
    report = check_tree_decomposition(g, bad)
    assert not report.valid
    assert report.first_failure == "edge (0,3) covered by no bag"
    covered = td([{0, 1}, {0, 5}, {0, 2, 3}, {3, 4}], [(0, 1), (1, 2), (2, 3)])
    assert check_tree_decomposition(g, covered).valid


def test_checker_rejects_disconnected_trace():
    g = Graph(3, [(0, 1), (1, 2)])
    bad = td([{0, 1}, {1, 2}, {0, 2}], [(0, 1), (1, 2)])
    report = check_tree_decomposition(g, bad)
    assert "connected subtree" in report.first_failure


def test_checker_rejects_missing_vertex():
    g = path(3)
    bad = td([{0, 1}, {1}], [(0, 1)])
    assert "appears in no bag" in check_tree_decomposition(g, bad).first_failure


def test_checker_empty_graph():
    assert check_tree_decomposition(Graph(0), td([set()], [])).valid
    assert not check_tree_decomposition(Graph(0), td([{0}], [])).valid
    assert not check_tree_decomposition(Graph(1), td([set()], [])).valid


def test_json_round_trip():
    g = cycle(5)
    built = build_tree_decomposition(g, growth_constant(g))
    again = TreeDecomposition.from_json_dict(built.to_json_dict())
    assert again == built
    assert built.to_json_dict()["width"] == built.width


@pytest.mark.parametrize("edges", [[[0, 1, 1]], [[0]], [[0, 1.5]], [[0, True]], [[0, "1"]]])
def test_json_edges_must_be_integer_pairs(edges):
    data = {"nodes": [{"id": 0, "bag": [0, 1]}, {"id": 1, "bag": [1, 2]}], "edges": edges}
    with pytest.raises(GrowthTWError):
        TreeDecomposition.from_json_dict(data)


# ---------------------------------------------------------------- exact treewidth

def independent_treewidth(g):
    """Cross-check oracle: minimise, over all vertex permutations, the largest
    elimination neighborhood.  Viable only for tiny n; implemented directly
    from the elimination-ordering characterisation with explicit fill-in."""
    from itertools import permutations

    best = g.n - 1 if g.n else 0
    for order in permutations(range(g.n)):
        adj = {v: set(g.adj[v]) for v in range(g.n)}
        worst = 0
        for v in order:
            nbrs = adj[v]
            worst = max(worst, len(nbrs))
            for a in nbrs:
                adj[a].discard(v)
            for a, b in combinations(nbrs, 2):
                adj[a].add(b)
                adj[b].add(a)
            del adj[v]
        if worst < best:
            best = worst
        if best == 0:
            break
    return best


@pytest.mark.parametrize(
    "g,expected",
    [
        (path(6), 1),
        (Graph(1), 0),
        (star(7), 1),
        (complete_binary_tree(7), 1),
        (cycle(5), 2),
        (cycle(9), 2),
        (complete(6), 5),
        (grid(2), 2),
        (grid(3), 3),
        (grid(4), 4),
    ],
)
def test_exact_treewidth_known(g, expected):
    width, witness = exact_treewidth(g)
    assert width == expected
    report = check_tree_decomposition(g, witness)
    assert report.valid
    assert report.width == width


def test_exact_treewidth_matches_independent_oracle():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 7)
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(possible)
        g = Graph(n, possible[: rng.randint(0, len(possible))])
        width, witness = exact_treewidth(g)
        assert width == independent_treewidth(g)
        assert check_tree_decomposition(g, witness).valid


def test_exact_treewidth_budget_and_empty():
    with pytest.raises(CapacityError):
        exact_treewidth(path(19))
    with pytest.raises(PreconditionError):
        exact_treewidth(Graph(0))


def subset_dp_treewidth(g):
    """Reference oracle: the full dynamic program over all 2^n vertex subsets
    (TW(S) = min over v in S of max(TW(S - v), |Q(S - v, v)|)), with no
    pruning and its own neighbourhood search."""
    n = g.n
    adjm = [sum(1 << w for w in g.adj[v]) for v in range(n)]

    def q_size(T, v):
        # Vertices outside T+{v} reachable from v through T.
        seen = frontier = 1 << v
        reach = 0
        while frontier:
            grown = 0
            for u in range(n):
                if frontier >> u & 1:
                    grown |= adjm[u]
            reach |= grown
            frontier = grown & T & ~seen
            seen |= frontier
        return (reach & ~T & ~(1 << v)).bit_count()

    opt = [0] * (1 << n)
    opt[0] = -1
    for S in range(1, 1 << n):
        opt[S] = min(
            max(opt[S & ~(1 << v)], q_size(S & ~(1 << v), v))
            for v in range(n)
            if S >> v & 1
        )
    return opt[-1]


def random_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def disjoint_union(g, h):
    return Graph(g.n + h.n, list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()])


def assert_exact_against_reference(g):
    width, witness = exact_treewidth(g)
    assert width == subset_dp_treewidth(g)
    report = check_tree_decomposition(g, witness)
    assert report.valid, report.first_failure
    assert witness.width == width


def test_exact_treewidth_matches_subset_dp_reference():
    rng = random.Random(2012)
    graphs = [
        Graph(1),
        Graph(9),  # edgeless
        disjoint_union(cycle(5), Graph(3)),  # isolated vertices
        disjoint_union(grid(3), complete(4)),
        random_cubic(12, seed=3),
        random_cubic(14, seed=5),
    ]
    for _ in range(30):
        graphs.append(random_graph(rng, rng.randint(2, 13), rng.choice([0.1, 0.2, 0.35, 0.5, 0.7])))
    for g in graphs:
        assert_exact_against_reference(g)


@st.composite
def small_graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    return Graph(n, edges)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_exact_treewidth_matches_subset_dp_reference_hypothesis(g):
    assert_exact_against_reference(g)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_decision_pass_at_every_k(g):
    # exact_treewidth asks only for lb <= k < ub; the pass must hold for any k.
    adjm = [sum(1 << w for w in g.adj[v]) for v in range(g.n)]
    tw = subset_dp_treewidth(g)
    for k in range(g.n + 1):
        order = decomposition_mod._elimination_order_within(adjm, k)
        assert (order is None) == (k < tw), (k, tw)
        if order is not None:
            assert sorted(order) == list(range(g.n))
            assert decomposition_mod._order_decomposition(adjm, order).width <= k


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_decision_pass_keeps_the_clique_last(g):
    adjm = [sum(1 << w for w in g.adj[v]) for v in range(g.n)]
    clique = decomposition_mod._greedy_clique(adjm)
    members = [v for v in range(g.n) if clique >> v & 1]
    assert members and all(adjm[u] >> v & 1 for u, v in combinations(members, 2))
    for k in range(g.n + 1):
        order = decomposition_mod._elimination_order_within(adjm, k)
        if order is not None:
            assert set(members) <= set(order[-(k + 1):]), (k, order, members)


def test_decision_pass_when_the_clique_is_the_whole_graph():
    # The clique is the whole graph, so the pass must answer before its walk.
    assert decomposition_mod._elimination_order_within([0], 0) == [0]
    assert decomposition_mod._elimination_order_within([0b10, 0b01], 0) is None
    assert decomposition_mod._elimination_order_within([0b10, 0b01], 1) == [0, 1]


def test_greedy_clique_is_the_largest_greedy_one():
    triangle = [(0, 1), (0, 2), (1, 2)]
    # A triangle and a K4 {3, 4, 5, 6} joined by the edge 2-3: the K4.
    # Two disjoint triangles: the first.
    for g, clique in (
        (Graph(7, triangle + [(2, 3)] + list(combinations(range(3, 7), 2))), 0b1111000),
        (disjoint_union(Graph(3, triangle), Graph(3, triangle)), 0b000111),
    ):
        adjm = [sum(1 << w for w in g.adj[v]) for v in range(g.n)]
        assert decomposition_mod._greedy_clique(adjm) == clique


def treewidth_bounds(g):
    adjm = [sum(1 << w for w in g.adj[v]) for v in range(g.n)]
    ub = decomposition_mod._order_decomposition(adjm, decomposition_mod._min_fill_order(adjm)).width
    return decomposition_mod._minor_min_width(adjm), ub


def test_bounds_sandwich_the_treewidth():
    rng = random.Random(7)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.15, 0.3, 0.5, 0.8]))
        lb, ub = treewidth_bounds(g)
        assert lb <= exact_treewidth(g)[0] <= ub


# Seeded search over 4000 random graphs on 6-12 vertices (seed 1161, n = 10,
# p = 0.4): min-fill gives width 5, the treewidth is 4.
MIN_FILL_MISSES = Graph(10, [
    (0, 3), (0, 4), (0, 5), (1, 3), (1, 8), (1, 9), (2, 5), (2, 6), (2, 9), (3, 7),
    (4, 6), (4, 8), (4, 9), (5, 6), (5, 7), (5, 8), (5, 9), (6, 7), (7, 8),
])


@pytest.mark.parametrize(
    "g,lb,tw,ub,passes",
    [
        # lb == ub: no decision pass runs.
        (complete_binary_tree(15), 1, 1, 1, []),
        (star(9), 1, 1, 1, []),
        (complete(7), 6, 6, 6, []),
        (expand_to_degree3(complete(5))[0], 4, 4, 4, []),
        # lb < ub == tw: the passes below ub all fail.
        (random_cubic(10, seed=1), 3, 4, 4, [(3, False)]),
        # tw < ub: a pass beats min-fill.
        (MIN_FILL_MISSES, 4, 4, 5, [(4, True)]),
    ],
)
def test_exact_treewidth_branches(monkeypatch, g, lb, tw, ub, passes):
    ran = []
    decide = decomposition_mod._elimination_order_within

    def recording(adjm, k):
        order = decide(adjm, k)
        ran.append((k, order is not None))
        return order

    monkeypatch.setattr(decomposition_mod, "_elimination_order_within", recording)
    monkeypatch.setattr(decomposition_mod, "EXACT_TREEWIDTH_VERTEX_BUDGET", 20)
    assert treewidth_bounds(g) == (lb, ub)
    width, witness = exact_treewidth(g)
    assert (width, ran) == (tw, passes)
    assert check_tree_decomposition(g, witness).valid and witness.width == tw


# ---------------------------------------------------------------- builder

@pytest.mark.parametrize(
    "g",
    [
        path(25),
        cycle(18),
        star(15),
        complete(5),
        complete_binary_tree(31),
        grid(5),
        random_cubic(40, seed=9),
        Graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]),  # disconnected
        Graph(3),  # edgeless
    ],
)
def test_builder_produces_valid_decompositions(g):
    c = growth_constant(g)
    built = build_tree_decomposition(g, c)
    report = check_tree_decomposition(g, built)
    assert report.valid, report.first_failure


def test_builder_width_never_beats_exact():
    for g in [path(10), cycle(8), grid(3), complete(5), random_cubic(12, seed=2)]:
        c = growth_constant(g)
        built = build_tree_decomposition(g, c)
        exact, _ = exact_treewidth(g)
        assert built.width >= exact
        assert check_tree_decomposition(g, built).valid


def test_builder_empty_graph():
    built = build_tree_decomposition(Graph(0), 1)
    assert check_tree_decomposition(Graph(0), built).valid


def test_builder_larger_c_still_valid():
    g = grid(4)
    built = build_tree_decomposition(g, Fraction(20))
    assert check_tree_decomposition(g, built).valid


@pytest.mark.parametrize(
    "g,c,width",
    [
        (grid(4), 1, 6),                              # an interior thick layer
        (cycle(12), 1, 3),                            # an interior thick layer
        (complete(5), 1, 4),                          # peels the last layer
        (star(9), 1, 8),                              # peels the last layer
        (complete_binary_tree(15), Fraction(3, 2), 2),  # thin beats thick
    ],
)
def test_builder_later_rank_classes_below_growth_constant(g, c, width):
    # With c below the growth constant, layers of 2c or more vertices are
    # thick and the split can fall to the rank classes after the thin one.
    # The decomposition stays valid; the exact width pins which class ran
    # and in what order.
    assert growth_constant(g) > c
    report = check_tree_decomposition(g, build_tree_decomposition(g, c))
    assert report.valid, report.first_failure
    assert report.width == width


@pytest.mark.parametrize(
    "g,c,rank_class",
    [
        (grid(4), 1, 1),
        (cycle(12), 1, 1),
        (complete(5), 1, 2),
        (star(9), 1, 2),
        (complete_binary_tree(15), Fraction(3, 2), 0),
    ],
)
def test_builder_reaches_the_rank_class_each_case_names(monkeypatch, g, c, rank_class):
    # The cases of the test above, with the latest rank class of
    # `_choose_split` that any of their splits falls to: 0 thin, 1 an
    # interior thick layer, 2 the last layer.
    choose = decomposition_mod._choose_split
    classes = []

    def recording(W, layering):
        a_side, b_side, sep = choose(W, layering)
        j = layering.layers.index(sep)
        classes.append(2 if j == layering.p else 0 if j in layering.thin else 1)
        return a_side, b_side, sep

    monkeypatch.setattr(decomposition_mod, "_choose_split", recording)
    build_tree_decomposition(g, c)
    assert max(classes) == rank_class


# 300 components, each a path on 10 vertices
MANY_PATHS = Graph(3000, [(v, v + 1) for v in range(2999) if v % 10 != 9])


def test_builder_needs_no_recursion_headroom(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"the builder asked for recursion limit {limit}")

    limit = sys.getrecursionlimit()
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    for g in (path(3000), MANY_PATHS):
        built = build_tree_decomposition(g, 3)
        assert check_tree_decomposition(g, built).valid
    assert sys.getrecursionlimit() == limit


def test_builder_finds_components_only_where_the_layering_misses_some(monkeypatch):
    # The layering of X covers X exactly when g[X] is connected, so only the
    # root of MANY_PATHS needs its components listed.
    calls = []

    def counting(g, X):
        calls.append(X)
        return components_within(g, X)

    monkeypatch.setattr(decomposition_mod, "components_within", counting)
    build_tree_decomposition(path(3000), 3)
    assert calls == []
    build_tree_decomposition(MANY_PATHS, 3)
    assert calls == [frozenset(range(3000))]


# ---------------------------------------------------------------- grid minors

def test_identity_model_validates():
    for k in range(2, 6):
        assert verify_grid_minor_model(grid(k), grid_identity_model(k)).valid


def test_model_rejections():
    g = grid(2)
    # Overlapping branch sets.
    sets = ((frozenset({0}), frozenset({0})), (frozenset({2}), frozenset({3})))
    verdict = verify_grid_minor_model(g, MinorModel(side=2, branch_sets=sets))
    assert "overlaps" in verdict.first_failure
    # Disconnected branch set.
    sets = ((frozenset({0, 3}), frozenset({1})), (frozenset({2}), frozenset()))
    verdict = verify_grid_minor_model(g, MinorModel(side=2, branch_sets=sets))
    assert not verdict.valid
    # Missing connecting edge: realise a 2x2 grid inside P_4 — impossible.
    p = path(4)
    sets = ((frozenset({0}), frozenset({1})), (frozenset({3}), frozenset({2})))
    verdict = verify_grid_minor_model(p, MinorModel(side=2, branch_sets=sets))
    assert "no edge" in verdict.first_failure


def test_contracted_model_in_bigger_grid():
    # 2x2 model inside grid(4) with fat branch sets (quadrants).
    g = grid(4)
    quad = lambda rows, cols: frozenset(r * 4 + c for r in rows for c in cols)
    sets = (
        (quad((0, 1), (0, 1)), quad((0, 1), (2, 3))),
        (quad((2, 3), (0, 1)), quad((2, 3), (2, 3))),
    )
    assert verify_grid_minor_model(g, MinorModel(side=2, branch_sets=sets)).valid
