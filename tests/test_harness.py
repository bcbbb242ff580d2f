import tracemalloc
from fractions import Fraction

import pytest

import growthtw.graphs as graphs_mod
import growthtw.harness as harness_mod
from growthtw.errors import CapacityError, InvariantViolationError, RangeError
from growthtw.decomposition import TreeDecomposition
from growthtw.generators import grid, path
from growthtw.graphs import Graph, is_tree
from growthtw.stacklayout import StackLayout
from growthtw.harness import (
    cubic_ball_bound,
    default_corpus,
    identity_tree_embedding,
    lower_bound_exploration,
    random_tree,
    run_theorem_suite,
    treewidth_bound,
)


def test_random_tree_is_tree_and_deterministic():
    t = random_tree(50, seed=3)
    assert is_tree(t)
    assert t == random_tree(50, seed=3)
    assert t != random_tree(50, seed=4)
    assert random_tree(1, seed=0).n == 1
    with pytest.raises(RangeError):
        random_tree(0, seed=1)


def test_random_tree_refuses_past_the_budget_before_it_allocates(monkeypatch):
    # The n - 1 pairs of 200,000 vertices trace about 24 MiB; the refusal
    # comes before the first of them is drawn.
    monkeypatch.setattr(graphs_mod, "VERTEX_BUDGET", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"^graph would have 200000 vertices \(budget 1000\)$"):
            random_tree(200_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_default_corpus_shapes():
    small = dict(default_corpus(small=True))
    full = dict(default_corpus())
    assert set(small) < set(full)
    assert small["grid-3"] == grid(3)
    assert all(g.n >= 1 for g in full.values())


def test_treewidth_bound_values():
    assert treewidth_bound(Fraction(1)) == 79
    assert treewidth_bound(Fraction(3)) == 531
    assert treewidth_bound(Fraction(11, 2)) == 1647  # 49*121/4 + 165 = 1647.25
    assert treewidth_bound(Fraction(5, 2)) == 381    # 1225/4 + 75 = 381.25


def test_run_suite_rejects_unknown():
    with pytest.raises(RangeError):
        run_theorem_suite([], "t9")


def test_small_suite_all_pass():
    reports = run_theorem_suite(default_corpus(small=True), "all")
    assert reports and all(r.passed for r in reports)
    themes = {r.theorem for r in reports}
    assert {"t1.1", "t1.2", "t3.1", "t5-host", "t5-uniform"} <= themes
    for r in reports:
        data = r.to_json_dict()
        assert data["passed"] is True
        assert isinstance(r.summary(), str) and r.name in r.summary()


def test_suite_selection():
    corpus = [("grid-3", grid(3))]
    only_width = run_theorem_suite(corpus, "t1.1")
    assert {r.theorem for r in only_width} == {"t1.1"}
    only_grid = run_theorem_suite(corpus, "t3.1")
    assert {r.theorem for r in only_grid} == {"t3.1"}
    assert len(only_grid) == 1


@pytest.mark.parametrize("which, measured", [("all", 17), ("t3.1", 3), ("t5", 0)])
def test_suite_measures_c_once_per_graph_read_and_builds_no_grid(monkeypatch, which, measured):
    corpus = default_corpus(small=True)
    calls = {"growth_constant": 0, "grid": 0}
    for fn in calls:
        def counted(*args, _fn=fn, _real=getattr(harness_mod, fn)):
            calls[_fn] += 1
            return _real(*args)
        monkeypatch.setattr(harness_mod, fn, counted)
    run_theorem_suite(corpus, which)
    assert calls == {"growth_constant": measured, "grid": 0}


def test_grid_side_recognises_exactly_the_grids():
    assert [harness_mod._grid_side(grid(q)) for q in (2, 3, 8)] == [2, 3, 8]
    assert harness_mod._grid_side(grid(1)) is None
    assert harness_mod._grid_side(path(4)) is None  # n = 2^2 but m = 3, not 4
    # grid(3) with edge 0-1 moved to 0-4: n and m match, the identity model does not.
    moved = Graph(9, [e for e in grid(3).edges() if e != (0, 1)] + [(0, 4)])
    assert moved.m == grid(3).m and harness_mod._grid_side(moved) is None
    # grid(2) under other labels, the cycle 0-1-2-3, is not recognised: the
    # identity model reads row-major ids.
    assert harness_mod._grid_side(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])) is None


def test_suite_refuses_an_invalid_built_decomposition(monkeypatch):
    monkeypatch.setattr(harness_mod, "build_tree_decomposition",
                        lambda g, c: TreeDecomposition(bags=(frozenset({0, 1, 2}),), edges=()))
    with pytest.raises(InvariantViolationError,
                       match=r"^grid-2: built decomposition invalid: vertex 3 appears in no bag$"):
        run_theorem_suite([("grid-2", grid(2))], "t1.1")


def test_suite_refuses_a_crossing_layout(monkeypatch):
    # In the order 0 1 2 3 the edges 0-2 and 1-3 of grid(2) cross on one stack.
    g = grid(2)
    crossing = StackLayout(order=(0, 1, 2, 3), assignment={e: 1 for e in g.edges()}, k=1)
    monkeypatch.setattr(harness_mod, "_layout", lambda g, td: crossing)
    with pytest.raises(InvariantViolationError, match=r"^grid-2: heuristic layout invalid at "):
        run_theorem_suite([("grid-2", g)], "t1.2")


def test_identity_tree_embedding_valid():
    from growthtw.constructions import check_product_embedding
    from growthtw.generators import complete_binary_tree

    tree = complete_binary_tree(7)
    assert check_product_embedding(tree, identity_tree_embedding(tree)).valid


def test_cubic_ball_bound():
    assert cubic_ball_bound(100, 1) == 4
    assert cubic_ball_bound(100, 2) == 10
    assert cubic_ball_bound(100, 3) == 22
    assert cubic_ball_bound(8, 3) == 8


def test_exploration_rows():
    rows = lower_bound_exploration([10], [1, 2])
    assert [(r.n, r.seed) for r in rows] == [(10, 1), (10, 2)]
    assert all(r.treewidth >= 1 for r in rows)
    assert all(r.growth_constant >= 1 for r in rows)
    with pytest.raises(CapacityError):
        lower_bound_exploration([20], [1])


def test_exploration_names_the_first_radius_past_the_ball_bound(monkeypatch):
    # A bound of 3 at r = 2 is below every 10-vertex cubic graph's f(2).
    monkeypatch.setattr(harness_mod, "cubic_ball_bound", lambda n, r: 3 if r == 2 else n)
    with pytest.raises(InvariantViolationError, match=r"n=10, seed=1, r=2$"):
        lower_bound_exploration([10], [1])
