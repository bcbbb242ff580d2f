import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import growthtw.growth as growth_mod
from growthtw.errors import CapacityError, PreconditionError, RangeError
from growthtw.generators import (
    complete,
    complete_binary_tree,
    cycle,
    grid,
    path,
    random_cubic,
    star,
    strong_product,
)
from growthtw.graphs import VERTEX_BUDGET, Graph, ball
from growthtw.growth import (
    BoundVerdict,
    brute_force_growth,
    brute_force_growth_edge_subsets,
    growth_constant,
    growth_profile,
    verify_growth_bound,
)


def random_small_graph(rng, max_n=8, max_m=20):
    n = rng.randint(1, max_n)
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(possible)
    m = rng.randint(0, min(max_m, len(possible)))
    return Graph(n, possible[:m])


def test_profile_path():
    profile = growth_profile(path(7), 7)
    assert profile.values == (3, 5, 7, 7, 7, 7, 7)
    assert profile.growth_constant == 3
    assert profile.argmax_radius == 1
    assert profile.f(2) == 5
    with pytest.raises(RangeError):
        profile.f(8)


def test_profile_handles_disconnected():
    g = Graph(5, [(0, 1), (2, 3), (3, 4)])
    profile = growth_profile(g, 3)
    assert profile.values == (3, 3, 3)


def test_growth_constant_known_values():
    assert growth_constant(path(10)) == 3
    assert growth_constant(cycle(12)) == 3
    assert growth_constant(star(9)) == 9       # whole star is a ball of radius 1
    assert growth_constant(complete(6)) == 6
    assert growth_constant(Graph(1)) == 1


def test_profile_against_brute_force_named_families():
    for g in [path(6), cycle(6), star(7), complete(5), grid(2)]:
        profile = growth_profile(g, g.n)
        for r in range(1, g.n + 1):
            assert profile.f(r) == brute_force_growth(g, r), (g, r)


def test_profile_against_brute_force_random():
    rng = random.Random(99)
    for _ in range(40):
        g = random_small_graph(rng)
        profile = growth_profile(g, g.n)
        for r in range(1, g.n + 1):
            assert profile.f(r) == brute_force_growth(g, r), (g, r)


def test_vertex_and_edge_subset_oracles_agree():
    rng = random.Random(5)
    for _ in range(25):
        g = random_small_graph(rng, max_n=6, max_m=10)
        for r in range(1, g.n + 1):
            assert brute_force_growth(g, r) == brute_force_growth_edge_subsets(g, r)


def test_edge_subset_oracle_keeps_the_most_vertices_per_radius():
    # K4 (6 edges, 4 vertices) beside star(6) (5 edges, 6 vertices): the
    # radius-1 subgraph with the most edges is not the one with the most
    # vertices.  Every radius is answered from one enumeration.
    g = Graph(10, list(complete(4).edges()) + [(u + 4, v + 4) for u, v in star(6).edges()])
    assert [brute_force_growth_edge_subsets(g, r) for r in range(-1, 4)] == [1, 1, 6, 6, 6]
    assert [brute_force_growth(g, r) for r in range(1, 4)] == [6, 6, 6]


def test_brute_force_budget():
    with pytest.raises(CapacityError):
        brute_force_growth(complete(8), 1)  # 28 edges
    with pytest.raises(CapacityError):
        brute_force_growth_edge_subsets(complete(6), 1)  # 15 edges


def test_empty_graph_rejected():
    with pytest.raises(PreconditionError):
        growth_profile(Graph(0), 1)
    with pytest.raises(PreconditionError):
        growth_constant(Graph(0))
    with pytest.raises(PreconditionError):
        verify_growth_bound(Graph(0), lambda r: r)


def test_product_growth_cube_of_ball():
    # Triple strong product of paths: f(r) = (2r+1)^3 while balls fit.
    g = strong_product(strong_product(path(5), path(5)), path(5))
    profile = growth_profile(g, 2)
    assert profile.f(1) == 27
    assert profile.f(2) == 125


def test_square_product_growth():
    g = strong_product(path(9), path(9))
    profile = growth_profile(g, 3)
    assert profile.values == (9, 25, 49)


def test_profile_keeps_a_finished_component_at_larger_radii():
    # K6's balls stop at radius 1, so f(2) = 6 comes from the running
    # maximum; P7's middle ball reaches 7 at radius 3.
    k6, p7 = complete(6), path(7)
    g = Graph(13, list(k6.edges()) + [(u + 6, v + 6) for u, v in p7.edges()])
    assert growth_profile(g, 4).values == (6, 6, 7, 7)


def test_verify_growth_bound():
    g = path(9)
    assert verify_growth_bound(g, lambda r: Fraction(3 * r)).holds
    verdict = verify_growth_bound(g, lambda r: Fraction(2 * r))
    assert not verdict.holds
    assert verdict.first_violation == (1, 3)


def test_verify_growth_bound_bad_callable():
    with pytest.raises(PreconditionError):
        verify_growth_bound(path(3), lambda r: 1 / 0)


def test_verify_growth_bound_runs_no_bfs_where_the_bound_clears_n(monkeypatch):
    # f(r) <= n, so a radius with bound(r) >= n cannot fail.
    calls = []
    ball_sizes = growth_mod._ball_sizes

    def counting(adj, v, seen):
        calls.append(v)
        return ball_sizes(adj, v, seen)

    monkeypatch.setattr(growth_mod, "_ball_sizes", counting)
    g = cycle(12)
    assert verify_growth_bound(g, lambda r: Fraction(12 + (r % 3))).holds
    assert verify_growth_bound(g, lambda r: Fraction(12)).holds
    assert calls == []
    profiled = []

    def recording(g, r_max):
        profiled.append(r_max)
        return growth_profile(g, r_max)

    monkeypatch.setattr(growth_mod, "growth_profile", recording)
    # Radii 1..5 are below n = 12; radius 6 on is not checked.
    assert verify_growth_bound(g, lambda r: Fraction(2 * r + 1)).holds
    assert profiled == [5]


def test_verify_growth_bound_catches_a_late_dip():
    # A bound that is not monotone: above n everywhere but at r = n - 1.
    g = path(9)
    bound = lambda r: Fraction(5 if r == 8 else 100)
    assert verify_growth_bound(g, bound).first_violation == (8, 9)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30)
def test_profile_monotone_random_graph(seed):
    g = random_small_graph(random.Random(seed))
    values = growth_profile(g, g.n).values
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_growth_constant_is_tight_bound():
    for g in [path(8), cycle(7), grid(3), star(5)]:
        c = growth_constant(g)
        assert verify_growth_bound(g, lambda r: c * r).holds
        # Anything strictly smaller fails somewhere.
        eps = Fraction(1, 1000)
        assert not verify_growth_bound(g, lambda r: (c - eps) * r).holds


@st.composite
def graphs_with_isolated_vertices(draw, max_n=14):
    """Random graphs on 1..max_n vertices, mostly sparse and disconnected,
    so isolated vertices, edgeless graphs and long BFS depths occur."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    return Graph(n, edges)


def two_components(a: Graph, b: Graph) -> Graph:
    return Graph(a.n + b.n, list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()])


@st.composite
def graphs_and_bounds(draw):
    """A small graph and one bound value per radius 1..n: integers and
    half-integers up to n + 1, and in half the cases also None for a radius
    where the bound raises."""
    g = draw(graphs_with_isolated_vertices(max_n=10))
    value = st.integers(min_value=0, max_value=2 * g.n + 2).map(lambda x: Fraction(x, 2))
    values = draw(st.lists(st.one_of(value, st.none()) if draw(st.booleans()) else value,
                           min_size=g.n, max_size=g.n))
    return g, values


@given(graphs_and_bounds())
# A violation at r = 2 comes before the bound fails at r = 4, and without
# it the failure is raised.
@example((path(7), [100, 2, 100, None, 100, 100, 100]))
@example((path(7), [100, 100, 100, None, 100, 100, 100]))
@settings(max_examples=150)
def test_verify_growth_bound_matches_a_full_profile(case):
    g, values = case

    def bound(r):
        if values[r - 1] is None:
            raise ValueError(f"no value at {r}")
        return values[r - 1]

    f = growth_profile(g, g.n).values
    for r in range(1, g.n + 1):
        if values[r - 1] is None:
            with pytest.raises(PreconditionError, match=f"not evaluable at r={r}:"):
                verify_growth_bound(g, bound)
            return
        if f[r - 1] > values[r - 1]:
            assert verify_growth_bound(g, bound) == BoundVerdict(False, (r, f[r - 1]))
            return
    assert verify_growth_bound(g, bound) == BoundVerdict(True)


@given(graphs_with_isolated_vertices())
@example(Graph(1))
@example(Graph(6))
@example(two_components(star(4), Graph(3)))
@example(two_components(path(3), complete_binary_tree(15)))
@example(complete_binary_tree(31))
@example(random_cubic(12, 1))
@example(strong_product(path(5), path(3)))
@settings(max_examples=200)
def test_growth_constant_equals_profile_maximum(g):
    profile = growth_profile(g, g.n)
    assert growth_constant(g) == max(Fraction(profile.f(r), r) for r in range(1, g.n + 1))


@given(graphs_with_isolated_vertices(), st.integers(min_value=1, max_value=20))
@example(Graph(1), 3)
@example(two_components(path(2), path(5)), 9)
def test_growth_profile_matches_balls(g, r_max):
    # graphs.ball runs its own dict BFS, independent of growth.py.
    profile = growth_profile(g, r_max)
    for r in range(1, r_max + 1):
        assert profile.f(r) == max(len(ball(g, v, r)) for v in range(g.n))


def ball_growth_constant(g: Graph) -> Fraction:
    """max_v max_r |B_r(v)|/r from graphs.ball, radius by radius until v's
    ball holds its whole component (past that the ratio only falls)."""
    best = Fraction(0)
    for v in range(g.n):
        size, r = 1, 0
        while True:
            r += 1
            grown = len(ball(g, v, r))
            best = max(best, Fraction(grown, r))
            if grown == size:
                break
            size = grown
    return best


@st.composite
def disjoint_unions(draw, max_n=80):
    """Disjoint unions of paths and cycles (maximum degree <= 2), some with
    binary trees or small arbitrary graphs beside them (degree >= 3)."""
    parts = draw(st.lists(
        st.one_of(
            st.builds(path, st.integers(1, 40)),
            st.builds(cycle, st.integers(3, 40)),
            st.builds(complete_binary_tree, st.integers(1, 31)),
            graphs_with_isolated_vertices(max_n=8),
        ),
        min_size=1, max_size=5,
    ))
    g = parts[0]
    for part in parts[1:]:
        if g.n + part.n > max_n:
            break
        g = two_components(g, part)
    return g


@given(disjoint_unions())
@example(path(2))
@example(cycle(3))
@example(star(5))
@example(two_components(path(60), complete(4)))
@example(two_components(cycle(41), star(4)))
@settings(max_examples=60, deadline=None)
def test_growth_constant_equals_ball_maximum(g):
    # The degree-bounded cutoff stops sources early; the balls here come
    # from graphs.ball, which shares nothing with growth.py.
    assert growth_constant(g) == ball_growth_constant(g)


def gnp(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


@st.composite
def sweep_graphs(draw, max_n=90):
    """Disjoint unions of paths, cycles, grids, random cubic graphs and
    small G(n, p): the grids, cubic graphs and denser G(n, p) have sources
    of degree >= 3 that pass radius 1 and grow for several radii."""
    parts = draw(st.lists(
        st.one_of(
            st.builds(path, st.integers(1, 30)),
            st.builds(cycle, st.integers(3, 30)),
            st.builds(grid, st.integers(1, 7)),
            st.builds(random_cubic, st.integers(2, 20).map(lambda k: 2 * k),
                      st.integers(0, 1000)),
            st.builds(gnp, st.integers(1, 16), st.floats(0, 1), st.integers(0, 1000)),
        ),
        min_size=1, max_size=4,
    ))
    g = parts[0]
    for part in parts[1:]:
        if g.n + part.n > max_n:
            break
        g = two_components(g, part)
    return g


@given(sweep_graphs())
@example(grid(7))
@example(random_cubic(40, 3))
@example(two_components(grid(5), path(30)))
@example(two_components(random_cubic(12, 1), Graph(1)))
@settings(max_examples=80, deadline=None)
def test_sweep_equals_per_source_bfs(g):
    swept = growth_constant(g)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(growth_mod, "SWEEP_VERTEX_LIMIT", 0)
        assert growth_constant(g) == swept


def forbid(name):
    def refuse(*args):
        raise AssertionError(f"{name} called")
    return refuse


def test_growth_constant_runs_bfs_above_the_sweep_limit(monkeypatch):
    calls = []
    ball_sizes = growth_mod._ball_sizes

    def counting(adj, v, seen):
        calls.append(v)
        return ball_sizes(adj, v, seen)

    g = grid(6)
    monkeypatch.setattr(growth_mod, "_ball_sizes", counting)
    monkeypatch.setattr(growth_mod, "_sweep", forbid("_sweep"))
    monkeypatch.setattr(growth_mod, "SWEEP_VERTEX_LIMIT", g.n - 1)
    assert growth_constant(g) == ball_growth_constant(g)
    assert calls


def test_growth_constant_sweeps_up_to_the_limit(monkeypatch):
    g = grid(6)
    monkeypatch.setattr(growth_mod, "_ball_sizes", forbid("_ball_sizes"))
    monkeypatch.setattr(growth_mod, "SWEEP_VERTEX_LIMIT", g.n)
    assert growth_constant(g) == ball_growth_constant(g)


@pytest.mark.parametrize("g, c", [(star(10), 10), (complete(6), 6)])
def test_maximum_degree_at_least_three_stops_at_radius_one(monkeypatch, g, c):
    # f(1) = delta + 1 already reaches n / 2, so no radius past 1 can beat
    # it, and no ball grows past radius 1 by either path.
    monkeypatch.setattr(growth_mod, "_sweep", forbid("_sweep"))
    monkeypatch.setattr(growth_mod, "_ball_sizes", forbid("_ball_sizes"))
    assert growth_constant(g) == c


@pytest.mark.parametrize("limit", [growth_mod.SWEEP_VERTEX_LIMIT, 1 << 15])
@pytest.mark.parametrize("family", [path, cycle])
def test_paths_and_cycles_stop_at_radius_one_without_masks(monkeypatch, family, limit):
    # No source of maximum degree 2 passes radius 1.  With the limit at
    # 2**15 the sweep's branch decides; 20000 masks of 20000 bits would
    # take about 50 MB.
    g = family(20000)
    monkeypatch.setattr(growth_mod, "SWEEP_VERTEX_LIMIT", limit)
    tracemalloc.start()
    try:
        assert growth_constant(g) == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_growth_profile_refuses_r_max_past_the_budget():
    with pytest.raises(CapacityError):
        growth_profile(path(3), VERTEX_BUDGET + 1)
    assert growth_profile(path(3), 5).values == (3, 3, 3, 3, 3)
