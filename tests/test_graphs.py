import math

import pytest
from hypothesis import given, strategies as st

from growthtw.errors import CapacityError, ParseError, RangeError, StructureError
from growthtw.generators import path
from growthtw.graphs import (
    VERTEX_BUDGET,
    Graph,
    ball,
    bfs_distances,
    components,
    components_within,
    is_connected,
    is_tree,
    moore_steps,
    parse_edge_list,
    serialize_edge_list,
)


def small_graphs(max_n=8):
    """Hypothesis strategy for small simple graphs."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
        return Graph(n, edges)

    return build()


def test_basic_construction():
    g = Graph(4, [(0, 1), (1, 2), (2, 1), (1, 0)])
    assert g.n == 4
    assert g.m == 2  # duplicates collapse
    assert list(g.edges()) == [(0, 1), (1, 2)]
    assert g.degree(1) == 2
    assert g.degree(3) == 0
    assert g.max_degree() == 2
    assert g.has_edge(2, 1) and not g.has_edge(0, 2)


def test_construction_rejects_bad_edges():
    with pytest.raises(StructureError):
        Graph(3, [(1, 1)])
    with pytest.raises(RangeError):
        Graph(3, [(0, 3)])
    with pytest.raises(RangeError):
        Graph(-1)
    with pytest.raises(CapacityError):
        Graph(VERTEX_BUDGET + 1)


def test_equality_and_hash():
    g1 = Graph(3, [(0, 1), (1, 2)])
    g2 = Graph(3, [(1, 2), (0, 1)])
    g3 = Graph(3, [(0, 1)])
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != g3


def test_parse_round_trip():
    text = "# comment\np 5 3\n0 1\n2 1\n\n3 4\n"
    g = parse_edge_list(text)
    assert g.n == 5 and g.m == 3
    again = parse_edge_list(serialize_edge_list(g))
    assert again == g


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_edge_list("0 1\n")  # missing header
    with pytest.raises(ParseError):
        parse_edge_list("p 3\n")
    with pytest.raises(ParseError):
        parse_edge_list("p 3 2\n0 1\n")  # declared m mismatch
    with pytest.raises(RangeError):
        parse_edge_list("p 2 1\n0 5\n")
    with pytest.raises(StructureError):
        parse_edge_list("p 2 1\n1 1\n")
    with pytest.raises(CapacityError):
        parse_edge_list("p 1000000000 0\n")  # refused before n lists are allocated
    err = None
    try:
        parse_edge_list("p 2 1\nx y\n")
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 2


def test_parse_preserves_isolated_vertices():
    g = parse_edge_list("p 6 1\n0 1\n")
    assert g.n == 6
    assert g.degree(5) == 0


def test_components_ordering():
    # Triangle on {3,4,5}, edge {1,2}, isolated 0: smallest component first.
    g = Graph(6, [(3, 4), (4, 5), (3, 5), (1, 2)])
    assert components(g) == [(0,), (1, 2), (3, 4, 5)]


def test_bfs_and_ball():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert bfs_distances(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
    assert ball(g, 2, 1) == frozenset({1, 2, 3})
    assert ball(g, 0, 0) == frozenset({0})


def test_bfs_restricted():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    dist = bfs_distances(g, 0, allowed=frozenset({0, 1, 3, 4}))
    assert dist == {0: 0, 1: 1}
    with pytest.raises(RangeError):
        bfs_distances(g, 2, allowed=frozenset({0, 1}))


def test_connectivity_predicates():
    g = Graph(4, [(0, 1), (2, 3)])
    assert not is_connected(g)
    assert is_connected(g, frozenset({2, 3}))
    assert is_connected(Graph(1))
    assert is_tree(Graph(3, [(0, 1), (1, 2)]))
    assert not is_tree(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert not is_tree(Graph(4, [(0, 1), (2, 3)]))


@given(small_graphs())
def test_serialize_round_trip_property(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


@given(small_graphs())
def test_degrees_sum_to_twice_edges(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


def test_components_within_induced_subgraph():
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])
    # Dropping 1 and 5 cuts g[X] into {0}, {2,3}, {4}, {6}.
    assert components_within(g, {0, 2, 3, 4, 6}) == [
        frozenset({0}), frozenset({4}), frozenset({6}), frozenset({2, 3}),
    ]
    assert components_within(g, frozenset()) == []


def test_moore_steps_values():
    assert moore_steps(2, 3, 2, 500) == 249      # a path gains 2 vertices a level
    assert moore_steps(3, 4, 3, 10) == 1         # 4 + 3*2
    assert moore_steps(3, 4, 3, 11) == 2         # 10 + 3*4
    assert moore_steps(5, 6, 5, 6) == 0
    assert moore_steps(1, 2, 1, 3) == math.inf   # a matching never grows
    assert moore_steps(4, 5, 0, 6) == math.inf   # an empty level ends the ball


@given(small_graphs(max_n=10))
def test_moore_steps_never_undercounts_a_ball(g):
    # From any ball B_r(v), r >= 1, the ball B_{r+j}(v) is reachable in at
    # most j steps of the bound.
    delta = g.max_degree()
    for v in range(g.n):
        dist = bfs_distances(g, v)
        sizes = [sum(d <= r for d in dist.values()) for r in range(max(dist.values()) + 1)]
        for r in range(1, len(sizes)):
            level = sizes[r] - sizes[r - 1]
            for j, target in enumerate(sizes[r:]):
                assert moore_steps(delta, sizes[r], level, target) <= j
