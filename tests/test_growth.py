import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

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
from growthtw.graphs import Graph, ball
from growthtw.growth import (
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


def test_verify_growth_bound():
    g = path(9)
    assert verify_growth_bound(g, lambda r: Fraction(3 * r)).holds
    verdict = verify_growth_bound(g, lambda r: Fraction(2 * r))
    assert not verdict.holds
    assert verdict.first_violation == (1, 3)


def test_verify_growth_bound_bad_callable():
    with pytest.raises(PreconditionError):
        verify_growth_bound(path(3), lambda r: 1 / 0)


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
