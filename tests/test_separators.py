import math
import random
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from growthtw.errors import (
    DegenerateInputError,
    InvariantViolationError,
    PreconditionError,
    RangeError,
)
from growthtw.decomposition import build_tree_decomposition, check_tree_decomposition
from growthtw.generators import cycle, grid, path, random_cubic, star
from growthtw.graphs import Graph, bfs_distances, components_within
from growthtw.growth import growth_constant
from growthtw.harness import treewidth_bound
from growthtw.separators import (
    Separation,
    bfs_layer_separation,
    bfs_layering,
    check_separation,
    iteration_cap,
    linear_growth_separator,
    rebalance_to_two_thirds,
    separate_possibly_disconnected,
    two_thirds_separation,
)


def test_layer_split_on_p7():
    # Worked through by hand: root 0, layers {0},{1},...,{6}; all thin at
    # c=3, the median thin index is 3, so A = layers 0..3, B = layers 3..6.
    sep, trace = bfs_layer_separation(path(7), None, 3)
    assert trace.root == 0
    assert trace.p == 6
    assert trace.layer_sizes == (1,) * 7
    assert trace.thick == ()
    assert trace.thin == (1, 2, 3, 4, 5, 6)
    assert trace.chosen_j == 3
    assert sep.a == frozenset({0, 1, 2, 3})
    assert sep.b == frozenset({3, 4, 5, 6})
    assert sep.order == 1


def test_layer_split_edge_cases():
    with pytest.raises(DegenerateInputError):
        bfs_layer_separation(Graph(1), None, 1)
    with pytest.raises(PreconditionError):
        bfs_layer_separation(Graph(4, [(0, 1), (2, 3)]), None, 1)
    with pytest.raises(RangeError):
        bfs_layer_separation(path(4), None, Fraction(1, 2))
    # c is checked before the balance 1 - 1/(4c) is formed, on every input.
    for c in (0, -1, Fraction(1, 2)):
        for separator in (linear_growth_separator, two_thirds_separation):
            with pytest.raises(RangeError):
                separator(Graph(1), None, c)
    # Two vertices: single layer pair, split at j=1.
    sep, trace = bfs_layer_separation(path(2), None, 1)
    assert sep.order <= 1 and sep.a | sep.b == frozenset({0, 1})


def test_layer_split_restricted_set():
    g = path(9)
    X = frozenset({2, 3, 4, 5, 6})
    sep, trace = bfs_layer_separation(g, X, 3)
    assert sep.a | sep.b == X
    assert check_separation(g, X, sep, Fraction(11, 12)).valid


def test_layer_split_guarantees_on_families():
    for g in [path(30), cycle(17), grid(4), star(12), random_cubic(30, seed=3)]:
        c = growth_constant(g)
        sep, trace = bfs_layer_separation(g, None, c)
        report = check_separation(g, None, sep, 1 - Fraction(1, 4 * c))
        assert report.valid
        assert sep.order < 2 * c
        assert report.exclusive_ratio <= 1 - Fraction(1, 4 * c)
        # Thick layers fill at most half the depth.
        assert 2 * len(trace.thick) <= trace.p


def test_check_separation_rejects_bad_pairs():
    g = path(5)
    bad = Separation(a=frozenset({0, 1}), b=frozenset({2, 3, 4}), host_size=5)
    report = check_separation(g, None, bad, Fraction(2, 3))
    assert not report.valid
    assert "crossing edge" in report.failure

    uncovered = Separation(a=frozenset({0, 1}), b=frozenset({3, 4}), host_size=5)
    assert "cover" in check_separation(g, None, uncovered, Fraction(2, 3)).failure

    outside = Separation(a=frozenset({0, 9}), b=frozenset({1}), host_size=2)
    report = check_separation(g, frozenset({0, 1}), outside, Fraction(2, 3))
    assert "outside" in report.failure


def test_check_separation_numbers():
    g = path(7)
    sep = Separation(a=frozenset({0, 1, 2, 3}), b=frozenset({3, 4, 5, 6}), host_size=7)
    report = check_separation(g, None, sep, Fraction(2, 3))
    assert report.valid
    assert report.order == 1
    assert report.sides == (3, 1, 3)
    assert report.alpha_achieved == Fraction(4, 7)
    assert report.exclusive_ratio == Fraction(3, 7)
    assert report.within_alpha


def test_disconnected_lifting_two_paths():
    # Two disjoint P_4s: the smaller-component peel is already 2/3-balanced.
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    sep = linear_growth_separator(g, None, 3)
    report = check_separation(g, None, sep, Fraction(11, 12))
    assert report.valid
    assert sep.order == 0
    assert set(map(len, (sep.a, sep.b))) == {4}


def test_disconnected_lifting_unbalanced():
    # P_12 plus an isolated vertex forces recursion into the big component.
    g = Graph(13, [(i, i + 1) for i in range(11)])
    sep = linear_growth_separator(g, None, 3)
    report = check_separation(g, None, sep, Fraction(11, 12))
    assert report.valid
    assert max(len(sep.a), len(sep.b)) <= Fraction(11, 12) * 13


def test_separate_possibly_disconnected_validates_alpha():
    g = path(4)
    with pytest.raises(RangeError):
        separate_possibly_disconnected(g, None, Fraction(1, 2), lambda Y: None)
    with pytest.raises(PreconditionError):
        separate_possibly_disconnected(g, frozenset(), Fraction(2, 3), lambda Y: None)


def test_iteration_cap_values():
    assert iteration_cap(Fraction(2, 3)) == 1
    assert iteration_cap(Fraction(3, 4)) == 2   # (3/4)^2 = 9/16 <= 2/3
    assert iteration_cap(Fraction(11, 12)) == 5  # (11/12)^5 ~ 0.648
    with pytest.raises(RangeError):
        iteration_cap(Fraction(1, 2))
    with pytest.raises(RangeError):
        iteration_cap(1)


def test_rebalance_terminates_within_cap():
    for g in [path(40), cycle(25), grid(5), random_cubic(50, seed=5)]:
        c = growth_constant(g)
        sep, calls = two_thirds_separation(g, None, c)
        alpha = max(Fraction(2, 3), 1 - Fraction(1, 4 * c))
        assert calls <= iteration_cap(alpha)
        report = check_separation(g, None, sep, Fraction(2, 3))
        assert report.valid
        assert 3 * max(*sep.exclusive_sides) <= 2 * g.n


def test_rebalance_detects_broken_oracle():
    # An oracle that always piles everything on one side can never rebalance.
    g = path(30)

    def bad_oracle(Y):
        return Separation(a=frozenset(Y), b=frozenset({min(Y)}), host_size=len(Y))

    with pytest.raises(InvariantViolationError):
        rebalance_to_two_thirds(g, None, Fraction(11, 12), bad_oracle)


def test_rebalance_single_call_when_balanced():
    g = path(9)
    sep, calls = two_thirds_separation(g, None, 3)
    assert calls == 1


def test_layer_split_order_bound_random():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 12)
        extra = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(extra)
        g = Graph(n, [(i, i + 1) for i in range(n - 1)] + extra[: rng.randint(0, 6)])
        c = growth_constant(g)
        sep, trace = bfs_layer_separation(g, None, c)
        assert sep.order < 2 * c
        assert check_separation(g, None, sep, 1 - Fraction(1, 4 * c)).valid


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 2..30 vertices plus random extra edges."""
    n = draw(st.integers(2, 30))
    tree = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    return Graph(n, tree + [(u, v) for u, v in extra if u != v])


@settings(max_examples=80, deadline=None)
@given(connected_graphs(),
       st.sampled_from([None, Fraction(1), Fraction(3, 2), Fraction(7, 4), Fraction(2)]))
@example(star(4), Fraction(7, 4))  # a layer of 3 < 2c = 7/2 vertices is thin
def test_layer_split_and_builder_share_the_layering(g, c):
    c = growth_constant(g) if c is None else c
    X = frozenset(range(g.n))
    layering = bfs_layering(g, X, c)
    _, trace = bfs_layer_separation(g, None, c)
    assert trace.root == layering.root == min(X)
    assert trace.layer_sizes == tuple(len(layer) for layer in layering.layers)
    assert trace.thin == layering.thin
    assert trace.chosen_j == layering.median
    # The layering agrees with a plain BFS from its root.
    dist = bfs_distances(g, layering.root)
    assert layering.layer_of == dist
    counts = Counter(dist.values())
    assert layering.thin == tuple(i for i in range(1, layering.p + 1) if counts[i] < 2 * c)

    seen = []

    def spy(g_, X_, c_):
        result = bfs_layering(g_, X_, c_)
        seen.append((X_, result))
        return result

    with mock.patch("growthtw.decomposition.bfs_layering", spy):
        build_tree_decomposition(g, c)
    if g.n > max(2, math.ceil(2 * c)):
        assert seen[0] == (X, layering)
    else:
        assert not seen


@st.composite
def relabelled_connected_graphs(draw):
    """A connected graph from `connected_graphs` under a random relabelling,
    so that vertex 0, the root of every layering, lies anywhere in it."""
    g = draw(connected_graphs())
    label = draw(st.permutations(range(g.n)))
    return Graph(g.n, [(label[u], label[v]) for u, v in g.edges()])


@settings(max_examples=100, deadline=None)
@given(relabelled_connected_graphs())
def test_guarantees_hold_from_the_smallest_root(g):
    # n <= f(p) <= c*p holds with p the eccentricity of any root, so the
    # layer split keeps its order and balance, and the builder its width
    # bound, with no center search.
    c = growth_constant(g)
    sep, trace = bfs_layer_separation(g, None, c)
    report = check_separation(g, None, sep, 1 - Fraction(1, 4 * c))
    assert report.valid, report.failure
    assert report.order < 2 * c
    assert report.exclusive_ratio <= 1 - Fraction(1, 4 * c)
    assert trace.root == 0
    td_report = check_tree_decomposition(g, build_tree_decomposition(g, c))
    assert td_report.valid, td_report.first_failure
    assert td_report.width <= treewidth_bound(c)


# ------------------------------------------- lifting to disconnected sets

def recursive_lift(g, X, connected_separator):
    """The lifting written as plain recursion: peel the smallest component
    J, stop if (X\\J, J) is 2/3-balanced, else recurse on X\\J, orient so
    |A| >= n/3 and absorb J into B."""
    comps = components_within(g, X)
    if len(comps) == 1:
        return connected_separator(X)
    smallest = comps[0]
    rest = X - smallest
    n = len(X)
    if 3 * len(rest) <= 2 * n:
        return Separation(a=rest, b=smallest, host_size=n)
    inner = recursive_lift(g, rest, connected_separator)
    a, b = inner.a, inner.b
    if 3 * len(a) < n:
        a, b = b, a
    if 3 * len(a) < n:
        raise InvariantViolationError("too small on both sides")
    return Separation(a=a, b=b | smallest, host_size=n)


def layer_split_oracle(g, c):
    def oracle(Y):
        if len(Y) == 1:
            return Separation(a=Y, b=Y, host_size=1)
        return bfs_layer_separation(g, Y, c)[0]

    return oracle


@st.composite
def disconnected_sets(draw):
    """A disjoint union of random connected pieces (some single vertices),
    and a random vertex subset of it that keeps at least one vertex."""
    edges, n = [], 0
    for size in draw(st.lists(st.integers(1, 9), min_size=1, max_size=12)):
        tree = [(n + v, n + draw(st.integers(0, v - 1))) for v in range(1, size)]
        chords = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                               max_size=size))
        edges += tree + [(n + u, n + v) for u, v in chords if u != v]
        n += size
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    X = frozenset(v for v in range(n) if keep[v]) or frozenset({0})
    return Graph(n, edges), X


@settings(max_examples=100, deadline=None)
@given(disconnected_sets(), st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(3)]))
def test_lifting_equals_the_recursive_reference(case, c):
    g, X = case
    alpha = max(Fraction(2, 3), 1 - Fraction(1, 4 * c))
    oracle = layer_split_oracle(g, c)
    sep = separate_possibly_disconnected(g, X, alpha, oracle)
    assert sep == recursive_lift(g, X, oracle)
    assert check_separation(g, X, sep, alpha).valid


def test_lifting_rejects_an_oracle_too_small_on_both_sides():
    # P_12 plus an isolated vertex peels the vertex and asks the oracle to
    # split the path; an oracle that drops most of it is caught on the way out.
    g = Graph(13, [(i, i + 1) for i in range(11)])

    def lossy_oracle(Y):
        return Separation(a=frozenset({min(Y)}), b=frozenset({max(Y)}), host_size=len(Y))

    with pytest.raises(InvariantViolationError):
        separate_possibly_disconnected(g, None, Fraction(11, 12), lossy_oracle)


def test_perfect_matching_separates_without_recursion():
    # 2500 components: the lifting peels 2497 of them before the rest is
    # balanced, far past the default recursion limit.
    limit = sys.getrecursionlimit()
    g = Graph(5000, [(2 * i, 2 * i + 1) for i in range(2500)])
    sep = linear_growth_separator(g, None, 3)
    report = check_separation(g, None, sep, Fraction(11, 12))
    assert report.valid
    assert 3 * max(*sep.exclusive_sides) <= 2 * g.n
    assert sys.getrecursionlimit() == limit
