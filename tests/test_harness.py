from fractions import Fraction

import pytest

import growthtw.harness as harness_mod
from growthtw.errors import CapacityError, InvariantViolationError, RangeError
from growthtw.generators import grid
from growthtw.graphs import is_tree
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
