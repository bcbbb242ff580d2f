import math
import random
import sys
import time
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import growthtw.separators as separators_mod
from growthtw.errors import InvariantViolationError, PreconditionError, RangeError
from growthtw.decomposition import build_tree_decomposition, check_tree_decomposition
from growthtw.generators import complete_binary_tree, cycle, grid, path, random_cubic, star
from growthtw.graphs import Graph, bfs_distances, components_within
from growthtw.growth import growth_constant
from growthtw.harness import treewidth_bound
from growthtw.separators import (
    Separation,
    SeparationReport,
    bfs_layer_separation,
    bfs_layering,
    check_separation,
    iteration_cap,
    separation_alpha,
    two_thirds_separation,
)


def layer_of(layering):
    """Vertex -> i with the vertex in V_i, read off `order` and `ends`: the
    vertex at position t lies in the layer of the first end past t."""
    return {v: bisect_right(layering.ends, t) for t, v in enumerate(layering.order)}


def layers(layering):
    """V_0, ..., V_p as sets, one slice of `order` per layer."""
    ends = layering.ends
    return [frozenset(layering.order[start:end]) for start, end in zip((0,) + ends, ends)]


def test_layer_split_on_p7():
    # Worked through by hand: root 0, layers {0},{1},...,{6}; all thin at
    # c=3, the median thin index is 3, so A = layers 0..3, B = layers 3..6.
    sep, layering = bfs_layer_separation(path(7), None, 3)
    assert layering.to_json_dict() == {
        "root": 0, "p": 6, "layer_sizes": [1] * 7, "thick": [],
        "thin": [1, 2, 3, 4, 5, 6], "chosen_j": 3,
    }
    assert sep.a == frozenset({0, 1, 2, 3})
    assert sep.b == frozenset({3, 4, 5, 6})
    assert sep.order == 1


def test_layer_split_edge_cases():
    # One vertex is its own layering, cut at j = p = 0 into (X, X).
    sep, layering = bfs_layer_separation(Graph(1), None, 1)
    assert sep == Separation(a=frozenset({0}), b=frozenset({0}))
    assert layering.to_json_dict() == {
        "root": 0, "p": 0, "layer_sizes": [1], "thick": [], "thin": [], "chosen_j": 0,
    }
    # Two disjoint edges: peeling one is already balanced, so no layer is cut.
    sep, layering = bfs_layer_separation(Graph(4, [(0, 1), (2, 3)]), None, 1)
    assert (sep, layering) == (Separation(a=frozenset({2, 3}), b=frozenset({0, 1})), None)
    with pytest.raises(RangeError):
        bfs_layer_separation(path(4), None, Fraction(1, 2))
    # c is checked before the balance 1 - 1/(4c) is formed, on every input.
    for c in (0, -1, Fraction(1, 2)):
        for separator in (bfs_layer_separation, two_thirds_separation):
            with pytest.raises(RangeError):
                separator(Graph(1), None, c)
    # Two vertices: single layer pair, split at j=1.
    sep, _ = bfs_layer_separation(path(2), None, 1)
    assert sep.order <= 1 and sep.a | sep.b == frozenset({0, 1})


def test_layer_split_restricted_set():
    g = path(9)
    X = frozenset({2, 3, 4, 5, 6})
    sep, _ = bfs_layer_separation(g, X, 3)
    assert sep.a | sep.b == X
    assert check_separation(g, X, sep, Fraction(11, 12)).valid


def test_layer_split_guarantees_on_families():
    for g in [path(30), cycle(17), grid(4), star(12), random_cubic(30, seed=3)]:
        c = growth_constant(g)
        sep, layering = bfs_layer_separation(g, None, c)
        report = check_separation(g, None, sep, 1 - Fraction(1, 4 * c))
        assert report.valid
        assert sep.order < 2 * c
        assert report.exclusive_ratio <= 1 - Fraction(1, 4 * c)
        # Thick layers fill at most half the depth.
        assert 2 * (layering.p - len(layering.thin)) <= layering.p


def test_check_separation_rejects_bad_pairs():
    g = path(5)
    bad = Separation(a=frozenset({0, 1}), b=frozenset({2, 3, 4}))
    report = check_separation(g, None, bad, Fraction(2, 3))
    assert not report.valid
    assert report.failure == "crossing edge (1,2) between A\\B and B\\A"

    uncovered = Separation(a=frozenset({0, 1}), b=frozenset({3, 4}))
    assert "cover" in check_separation(g, None, uncovered, Fraction(2, 3)).failure

    outside = Separation(a=frozenset({0, 9}), b=frozenset({1}))
    report = check_separation(g, frozenset({0, 1}), outside, Fraction(2, 3))
    assert "outside" in report.failure


def test_check_separation_of_the_empty_graph():
    empty = Separation(a=frozenset(), b=frozenset())
    report = check_separation(Graph(0), None, empty, Fraction(2, 3))
    assert report.valid and report.within_alpha
    assert (report.order, report.sides) == (0, (0, 0, 0))
    assert report.alpha_achieved == report.exclusive_ratio == 0


def nested_loop_check(g, X, s, alpha):
    """The checker written with explicit loops: the first crossing edge is
    found u by u over A\\B and then along u's adjacency list."""
    alpha = Fraction(alpha)
    X = frozenset(range(g.n)) if X is None else frozenset(X)
    a, b = s.a, s.b
    n = len(X)
    failure = None
    if not (a <= X and b <= X):
        failure = "A or B contains vertices outside the host set"
    elif a | b != X:
        failure = "A union B does not cover the host set"
    else:
        excl_a, excl_b = a - b, b - a
        for u in excl_a:
            for w in g.adj[u]:
                if w in excl_b:
                    failure = f"crossing edge ({u},{w}) between A\\B and B\\A"
                    break
            if failure:
                break
    order = len(a & b)
    sides = (len(a - b), order, len(b - a))
    if n == 0:
        alpha_achieved = Fraction(0)
        exclusive = Fraction(0)
    else:
        alpha_achieved = Fraction(max(len(a), len(b)), n)
        exclusive = Fraction(max(sides[0], sides[2]), n)
    return SeparationReport(
        valid=failure is None,
        order=order,
        alpha_achieved=alpha_achieved,
        sides=sides,
        within_alpha=alpha_achieved <= alpha,
        exclusive_ratio=exclusive,
        failure=failure,
    )


@st.composite
def separation_cases(draw):
    """A random graph, a host set (None for all of V(g)) and a pair (A, B):
    each host vertex joins A only, B only or both, and up to two strays of
    range(n + 2) then join a side or leave both, so that uncovered hosts
    and ids outside the host set occur too."""
    n = draw(st.integers(0, 12))
    vertex = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)) if n else []
    g = Graph(n, [(u, v) for u, v in edges if u != v])
    X = draw(st.none() | st.frozensets(vertex, max_size=n)) if n else None
    host = sorted(range(n) if X is None else X)
    labels = draw(st.lists(st.sampled_from(["a", "b", "ab"]), min_size=len(host), max_size=len(host)))
    a = {v for v, label in zip(host, labels) if "a" in label}
    b = {v for v, label in zip(host, labels) if "b" in label}
    for v, label in draw(st.lists(st.tuples(st.integers(0, n + 1), st.sampled_from(["a", "b", ""])),
                                  max_size=2)):
        if label:
            (a if label == "a" else b).add(v)
        else:
            a.discard(v)
            b.discard(v)
    return g, X, Separation(a=frozenset(a), b=frozenset(b))


@settings(max_examples=300, deadline=None)
@given(separation_cases())
@example((Graph(0), None, Separation(frozenset({0}), frozenset())))
def test_check_separation_equals_the_nested_loop_checker(case):
    # The whole report agrees, the crossing edge named included.  On an
    # empty host set both ratios are 0 even when a side is not empty.
    g, X, s = case
    report = check_separation(g, X, s, Fraction(2, 3))
    assert report == nested_loop_check(g, X, s, Fraction(2, 3))
    if not (range(g.n) if X is None else X):
        assert report.alpha_achieved == report.exclusive_ratio == 0


def test_check_separation_numbers():
    g = path(7)
    sep = Separation(a=frozenset({0, 1, 2, 3}), b=frozenset({3, 4, 5, 6}))
    report = check_separation(g, None, sep, Fraction(2, 3))
    assert report.valid
    assert report.order == 1
    assert report.sides == (3, 1, 3)
    assert report.alpha_achieved == Fraction(4, 7)
    assert report.exclusive_ratio == Fraction(3, 7)
    assert report.within_alpha
    # A larger side of exactly alpha * n vertices is within alpha, and not
    # within any smaller alpha.
    assert check_separation(g, None, sep, Fraction(4, 7)).within_alpha
    assert not check_separation(g, None, sep, Fraction(4, 7) - Fraction(1, 100)).within_alpha


def test_disconnected_lifting_two_paths():
    # Two disjoint P_4s: the smaller-component peel is already 2/3-balanced.
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    sep, layering = bfs_layer_separation(g, None, 3)
    assert layering is None
    report = check_separation(g, None, sep, Fraction(11, 12))
    assert report.valid
    assert sep.order == 0
    assert set(map(len, (sep.a, sep.b))) == {4}


def test_disconnected_lifting_unbalanced():
    # P_12 plus an isolated vertex forces recursion into the big component,
    # whose layering is the one cut and returned.
    g = Graph(13, [(i, i + 1) for i in range(11)])
    sep, layering = bfs_layer_separation(g, None, 3)
    assert layering == bfs_layering(g, frozenset(range(12)), 3)
    assert (layering.root, layering.p, layering.median) == (0, 11, 6)
    report = check_separation(g, None, sep, Fraction(11, 12))
    assert report.valid
    assert max(len(sep.a), len(sep.b)) <= Fraction(11, 12) * 13


def test_layer_split_tests_connectivity_by_its_layering(monkeypatch):
    # A set whose layering covers it is connected and split on that
    # layering; only a disconnected set is cut into its components.
    g = Graph(5, [(0, 1), (2, 3), (3, 4)])
    sep, layering = bfs_layer_separation(g, None, 1)
    assert sep == Separation(a=frozenset({2, 3, 4}), b=frozenset({0, 1}))
    assert layering is None

    def refuse(*args):
        raise AssertionError("components_within was called")

    monkeypatch.setattr(separators_mod, "components_within", refuse)
    sep, layering = bfs_layer_separation(g, frozenset({2, 3, 4}), 1)
    assert layering.order == (2, 3, 4)


def test_separators_validate_c_and_the_set():
    g = path(4)
    with pytest.raises(RangeError, match="c must be >= 1"):
        bfs_layer_separation(g, None, Fraction(1, 2))
    for separator in (bfs_layer_separation, two_thirds_separation):
        with pytest.raises(PreconditionError, match="empty set"):
            separator(g, frozenset(), 3)


def test_separation_alpha_values():
    for c in (1, Fraction(3, 2), 7, 10**9):
        assert separation_alpha(c) == 1 - Fraction(1, 4 * c)
    assert separation_alpha(1) == Fraction(3, 4)
    with pytest.raises(RangeError, match="c must be >= 1"):
        separation_alpha(Fraction(999, 1000))


def test_separators_name_an_out_of_range_host_vertex():
    g = path(5)
    for X, bad in ((frozenset({0, 99}), 99), (frozenset({-1, 2}), -1)):
        message = f"vertex {bad} out of range"
        with pytest.raises(RangeError, match=message):
            two_thirds_separation(g, X, 3)
        with pytest.raises(RangeError, match=message):
            bfs_layer_separation(g, X, 3)
        with pytest.raises(RangeError, match=message):
            check_separation(g, X, Separation(a=X, b=X), Fraction(2, 3))


def test_layering_refuses_an_out_of_range_id(monkeypatch):
    # The root min(X) is always checked; max(X) only when the layering
    # misses part of X, since a covering layering reaches only ids of g.
    checked = []
    check = Graph._check_vertex

    def recording(self, v):
        checked.append(v)
        return check(self, v)

    monkeypatch.setattr(Graph, "_check_vertex", recording)
    with pytest.raises(RangeError, match="vertex 99 out of range"):
        bfs_layering(path(5), frozenset({0, 99}), 3)
    assert checked == [0, 99]
    checked.clear()
    layering = bfs_layering(path(5), frozenset({1, 2, 3}), 3)
    assert (layering.order, layering.ends) == ((1, 2, 3), (1, 2, 3))
    assert checked == [1]
    checked.clear()
    assert bfs_layering(path(5), frozenset({0, 4}), 3).order == (0,)
    assert checked == [0, 4]


def test_lifting_finds_components_only_where_the_layering_misses_some(monkeypatch):
    # The layering of X covers X exactly when g[X] is connected, so only a
    # disconnected X needs its components listed, once for all its levels.
    calls = []

    def counting(g, X):
        calls.append(X)
        return components_within(g, X)

    monkeypatch.setattr(separators_mod, "components_within", counting)
    bfs_layer_separation(path(3000), None, 3)
    assert calls == []
    many_paths = Graph(3000, [(v, v + 1) for v in range(2999) if v % 10 != 9])
    bfs_layer_separation(many_paths, None, 3)
    assert calls == [frozenset(range(3000))]


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


def forbid_iteration_cap(monkeypatch):
    # The rebalance tests alpha^calls <= 2/3 on a running product; the exact
    # cap takes O(c) rational multiplications, seconds at c = 10**4.
    def no_cap(alpha):
        raise AssertionError(f"iteration_cap({alpha}) computed by the rebalance")

    monkeypatch.setattr(separators_mod, "iteration_cap", no_cap)


def test_rebalance_names_c_when_the_cap_is_exceeded(monkeypatch):
    # grid(20) grows faster than 3r, so its layer splits at c = 3 are not
    # 11/12-balanced and the cap of five splits does not reach 2/3.
    forbid_iteration_cap(monkeypatch)
    with pytest.raises(InvariantViolationError) as err:
        two_thirds_separation(grid(20), None, 3)
    assert str(err.value) == (
        "not 2/3-balanced after 5 layer splits (cap 5) at c = 3; "
        "the layer split is only (1 - 1/(4c))-balanced where f(r) <= c*r"
    )


def test_rebalance_single_call_when_balanced(monkeypatch):
    # On cbt-9 at c = 2 the first split leaves exactly 6 = 2n/3 vertices in
    # B\A, which is balanced.
    forbid_iteration_cap(monkeypatch)
    for g, c in ((path(9), 3), (path(5), 10**4), (complete_binary_tree(9), 2)):
        sep, calls = two_thirds_separation(g, None, c)
        assert calls == 1
        assert 3 * max(*sep.exclusive_sides) <= 2 * g.n


def test_rebalance_splits_only_the_exclusive_heavy_side(monkeypatch):
    # cbt-31 at its growth constant 31/4: the first split has A = {0..6},
    # A & B = {3..6} and 24 > 2n/3 vertices in B\A = {7..30}, so B\A is
    # split again and its smaller side joins A.  Splitting all of B instead
    # would lay out {3..6} too and move other leaves.
    forbid_iteration_cap(monkeypatch)
    g = complete_binary_tree(31)
    sep, calls = two_thirds_separation(g, None, growth_constant(g))
    assert calls == 2
    assert sorted(sep.a) == [0, 1, 2, 3, 4, 5, 6, 9, 10, 11, 12, *range(19, 27)]
    assert sorted(sep.b) == [3, 4, 5, 6, 7, 8, *range(13, 19), *range(27, 31)]


def test_rebalance_breaks_a_size_tie_by_the_smallest_id():
    # cbt-15 at c = 3/2: B\A = {3, ..., 14} is split into two sides of 6
    # vertices, and the side without its smallest id 3, {5, 6, 11, ..., 14},
    # joins A.
    sep, calls = two_thirds_separation(complete_binary_tree(15), None, Fraction(3, 2))
    assert calls == 2
    assert sep.a == frozenset({0, 1, 2, 5, 6, 11, 12, 13, 14})
    assert sep.b == frozenset({1, 2, 3, 4, 7, 8, 9, 10})


def test_rebalance_at_a_huge_c_splits_without_the_cap(monkeypatch):
    # A broom, the path 0..9 with 100 leaves on vertex 9, needs 3 splits.
    # The exact cap at c = 10**9 is about 1.6 * 10**9 multiplications.
    forbid_iteration_cap(monkeypatch)
    broom = Graph(110, [(v, v + 1) for v in range(9)] + [(9, leaf) for leaf in range(10, 110)])
    start = time.monotonic()
    sep, calls = two_thirds_separation(broom, None, 10**9)
    assert time.monotonic() - start < 1
    assert calls == 3
    assert 3 * max(*sep.exclusive_sides) <= 2 * broom.n


def test_layer_split_order_bound_random():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 12)
        extra = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(extra)
        g = Graph(n, [(i, i + 1) for i in range(n - 1)] + extra[: rng.randint(0, 6)])
        c = growth_constant(g)
        sep, _ = bfs_layer_separation(g, None, c)
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
    assert layering.root == min(X)
    assert bfs_layer_separation(g, None, c)[1] == layering
    # The layering agrees with a plain BFS from its root.
    dist = bfs_distances(g, layering.root)
    assert layer_of(layering) == dist
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
    sep, layering = bfs_layer_separation(g, None, c)
    report = check_separation(g, None, sep, 1 - Fraction(1, 4 * c))
    assert report.valid, report.failure
    assert report.order < 2 * c
    assert report.exclusive_ratio <= 1 - Fraction(1, 4 * c)
    assert layering.root == 0
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
        return Separation(a=rest, b=smallest)
    inner = recursive_lift(g, rest, connected_separator)
    a, b = inner.a, inner.b
    if 3 * len(a) < n:
        a, b = b, a
    if 3 * len(a) < n:
        raise InvariantViolationError("too small on both sides")
    return Separation(a=a, b=b | smallest)


def layer_split_oracle(g, c):
    def oracle(Y):
        if len(Y) == 1:
            return Separation(a=Y, b=Y)
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
@given(disconnected_sets())
def test_layering_lays_out_the_component_of_the_smallest_vertex(g_and_X):
    # On any X, connected or not, the layering is a BFS of g[X] from min(X):
    # it covers the component of min(X) in g[X], and X exactly when g[X] is
    # connected.
    g, X = g_and_X
    layering = bfs_layering(g, X, Fraction(3, 2))
    dist = bfs_distances(Graph(g.n, [e for e in g.edges() if set(e) <= X]), min(X))
    assert len(set(layering.order)) == len(layering.order)
    assert layer_of(layering) == dist
    assert layers(layering) == [
        frozenset(v for v, d in dist.items() if d == i) for i in range(max(dist.values()) + 1)
    ]
    comps = components_within(g, X)
    assert set(layering.order) == next(comp for comp in comps if min(X) in comp)
    assert (len(layering.order) == len(X)) == (len(comps) == 1)


@settings(max_examples=100, deadline=None)
@given(disconnected_sets(), st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(3)]))
def test_lifting_equals_the_recursive_reference(case, c):
    g, X = case
    sep, _ = bfs_layer_separation(g, X, c)
    assert sep == recursive_lift(g, X, layer_split_oracle(g, c))
    assert check_separation(g, X, sep, max(Fraction(2, 3), 1 - Fraction(1, 4 * c))).valid


@settings(max_examples=100, deadline=None)
@given(disconnected_sets() | relabelled_connected_graphs().map(lambda g: (g, None)),
       st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(3)]))
@example((Graph(1), None), Fraction(1))
@example((Graph(13, [(i, i + 1) for i in range(11)]), None), Fraction(3))
@example((Graph(4, [(0, 1), (2, 3)]), None), Fraction(3))
def test_the_returned_layering_is_the_one_cut(case, c):
    # The layering `separate --trace` prints is the one whose median cut
    # made the split: restricted to its component, the sides are its cut.
    # With no layering, whole components were peeled and nothing was cut.
    g, X = case
    sep, layering = bfs_layer_separation(g, X, c)
    comps = components_within(g, frozenset(range(g.n)) if X is None else X)
    if layering is None:
        assert not sep.a & sep.b
        assert all(comp <= sep.a or comp <= sep.b for comp in comps)
    else:
        reached = frozenset(layering.order)
        assert reached in comps
        a, b, _ = layering.sides(layering.median)
        assert {a, b} == {sep.a & reached, sep.b & reached}


def test_lifting_reuses_the_layering_that_lays_out_the_last_component(monkeypatch):
    # A layering that misses part of X lays out the component of min(X), so
    # when the peel ends at that component it is cut without a second BFS.
    calls = []

    def counting(g, X, c):
        calls.append(X)
        return bfs_layering(g, X, c)

    monkeypatch.setattr(separators_mod, "bfs_layering", counting)
    # P12 on 0..11 plus the isolated vertex 12, which is peeled.
    g = Graph(13, [(i, i + 1) for i in range(11)])
    layering = bfs_layer_separation(g, None, 3)[1]
    assert calls == [frozenset(range(13))]
    assert layering == bfs_layering(g, frozenset(range(12)), 3)
    # The isolated vertex 0 is the root, so the path on 1..12 is laid out anew.
    calls.clear()
    g = Graph(13, [(i, i + 1) for i in range(1, 12)])
    layering = bfs_layer_separation(g, None, 3)[1]
    assert calls == [frozenset(range(13)), frozenset(range(1, 13))]
    assert layering.root == 1


@settings(max_examples=100, deadline=None)
@given(disconnected_sets() | relabelled_connected_graphs().map(lambda g: (g, frozenset(range(g.n)))),
       st.sampled_from([None, Fraction(1), Fraction(3, 2), Fraction(2)]))
def test_prefix_is_the_layering_of_the_a_side(case, c):
    # The A side of a cut j, layers 0..j, holds the root, and each of its
    # vertices is first reached from the layer before, also in A: its BFS
    # from the same root is a prefix of this one.
    g, X = case
    c = growth_constant(g) if c is None else c
    layering = bfs_layering(g, X, c)
    for j in range(1, layering.p + 1):
        assert layering.prefix(j) == bfs_layering(g, layering.sides(j)[0], c)


def test_perfect_matching_separates_without_recursion():
    # 2500 components: the lifting peels 2497 of them before the rest is
    # balanced, far past the default recursion limit.
    limit = sys.getrecursionlimit()
    g = Graph(5000, [(2 * i, 2 * i + 1) for i in range(2500)])
    sep, _ = bfs_layer_separation(g, None, 3)
    report = check_separation(g, None, sep, Fraction(11, 12))
    assert report.valid
    assert 3 * max(*sep.exclusive_sides) <= 2 * g.n
    assert sys.getrecursionlimit() == limit
