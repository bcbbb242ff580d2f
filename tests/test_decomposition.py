import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from growthtw.decomposition import (
    MinorModel,
    TreeDecomposition,
    build_tree_decomposition,
    check_tree_decomposition,
    exact_treewidth,
    grid_identity_model,
    verify_grid_minor_model,
)
from growthtw.errors import CapacityError, InvariantViolationError, PreconditionError
from growthtw.generators import complete, complete_binary_tree, cycle, grid, path, random_cubic, star
from growthtw.graphs import Graph
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


def test_checker_rejects_uncovered_edge():
    g = path(3)
    bad = td([{0, 1}, {2}], [(0, 1)])
    assert "covered by no bag" in check_tree_decomposition(g, bad).first_failure


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
        (grid(4), 1, 9),                              # an interior thick layer
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


def test_builder_needs_no_recursion_headroom(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"the builder asked for recursion limit {limit}")

    limit = sys.getrecursionlimit()
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    many_paths = Graph(
        3000, [(v, v + 1) for v in range(2999) if v % 10 != 9]
    )  # 300 components, each a path on 10 vertices
    for g in (path(3000), many_paths):
        built = build_tree_decomposition(g, 3)
        assert check_tree_decomposition(g, built).valid
    assert sys.getrecursionlimit() == limit


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
