import pytest

import growthtw.generators as generators_mod
import growthtw.graphs as graphs_mod
from growthtw.errors import CapacityError, GenerationError, RangeError
from growthtw.generators import (
    blow_up,
    complete,
    complete_binary_tree,
    cycle,
    generate,
    grid,
    path,
    random_cubic,
    star,
    strong_product,
)
from growthtw.graphs import components, is_tree


def test_path_cycle_star_complete():
    assert path(1).n == 1 and path(1).m == 0
    assert path(5).m == 4 and is_tree(path(5))
    assert cycle(5).m == 5 and all(cycle(5).degree(v) == 2 for v in range(5))
    assert star(6).m == 5 and star(6).degree(0) == 5
    assert complete(5).m == 10


def test_size_validation():
    with pytest.raises(RangeError):
        path(0)
    with pytest.raises(RangeError):
        cycle(2)
    with pytest.raises(RangeError):
        generate("moebius", 8)


def test_complete_binary_tree_shape():
    t = complete_binary_tree(7)
    assert is_tree(t)
    assert sorted(t.adj[0]) == [1, 2]
    assert sorted(t.adj[1]) == [0, 3, 4]
    assert t.degree(6) == 1


def test_grid_shape():
    g = grid(3)
    assert g.n == 9 and g.m == 12

    def to_id(row, col):  # row-major numbering
        return 3 * row + col

    assert g.has_edge(to_id(0, 0), to_id(0, 1))
    assert g.has_edge(to_id(0, 0), to_id(1, 0))
    assert not g.has_edge(to_id(0, 0), to_id(1, 1))
    # corner/edge/interior degrees
    assert g.degree(to_id(0, 0)) == 2
    assert g.degree(to_id(0, 1)) == 3
    assert g.degree(to_id(1, 1)) == 4


def test_generate_dispatch():
    assert generate("cycle", 7) == cycle(7)
    assert generate("grid", 4) == grid(4)


def brute_strong_product_edges(g, h):
    """Definition-level oracle: pairs differing with each coordinate equal or
    adjacent."""
    edges = set()
    for v in range(g.n):
        for w in range(h.n):
            for v2 in range(g.n):
                for w2 in range(h.n):
                    if (v, w) == (v2, w2):
                        continue
                    if (v == v2 or g.has_edge(v, v2)) and (w == w2 or h.has_edge(w, w2)):
                        a = v * h.n + w
                        b = v2 * h.n + w2
                        edges.add((min(a, b), max(a, b)))
    return edges


@pytest.mark.parametrize(
    "g,h",
    [
        (path(3), path(4)),
        (cycle(4), path(2)),
        (path(2), complete(3)),
        (grid(2), path(3)),
    ],
)
def test_strong_product_matches_definition(g, h):
    prod = strong_product(g, h)
    assert prod.n == g.n * h.n
    assert set(prod.edges()) == brute_strong_product_edges(g, h)


def test_strong_product_known_counts():
    # P_m x P_n king graph: edge count 4mn - 3(m+n) + 2.
    prod = strong_product(path(4), path(5))
    assert prod.m == 4 * 4 * 5 - 3 * (4 + 5) + 2


def test_blow_up_matches_product():
    assert blow_up(path(3), 2) == strong_product(path(3), complete(2))
    # Each vertex contributes C(t,2) edges, each base edge t*t.
    b = blow_up(cycle(4), 3)
    assert b.n == 12 and b.m == 4 * 3 + 4 * 9


def test_product_budget():
    with pytest.raises(CapacityError):
        strong_product(path(2000), path(2000))


@pytest.mark.parametrize("build", [path, cycle, star, complete, complete_binary_tree, grid,
                                   lambda n: random_cubic(n, seed=1)])
def test_generators_refuse_the_budget_before_allocating(build):
    # Building the edge or stub list first would exhaust memory here.
    with pytest.raises(CapacityError):
        build(10**12)


@pytest.mark.parametrize("build", [
    lambda: complete(2829),  # 4,000,206 edges
    lambda: strong_product(path(1001), path(1001)),  # 1,002,001 vertices, 4,002,000 edges
    lambda: blow_up(path(100000), 6),
], ids=["complete", "product", "blow-up"])
def test_generators_refuse_the_edge_budget_before_allocating(build):
    # Each is under the vertex budget; building its edge list first would
    # take a gigabyte or more.
    with pytest.raises(CapacityError, match="edges"):
        build()


def test_edge_budget_is_the_exact_edge_count(monkeypatch):
    # complete(5) has 10 edges; P2 x P3 has 2*2 + 1*3 + 2*1*2 = 11.
    monkeypatch.setattr(graphs_mod, "EDGE_BUDGET", 10)
    assert complete(5).m == 10
    with pytest.raises(CapacityError):
        complete(6)
    with pytest.raises(CapacityError):
        strong_product(path(2), path(3))
    monkeypatch.setattr(graphs_mod, "EDGE_BUDGET", 11)
    assert strong_product(path(2), path(3)).m == 11


def test_grid_budget_counts_vertices():
    with pytest.raises(CapacityError):
        grid(1415)  # 1415**2 = 2_002_225 vertices
    with pytest.raises(CapacityError):
        generate("grid", 10**6)


def test_random_cubic_regular_and_deterministic():
    g = random_cubic(20, seed=7)
    assert g.n == 20 and g.m == 30
    assert all(g.degree(v) == 3 for v in range(20))
    assert g == random_cubic(20, seed=7)
    assert g != random_cubic(20, seed=8)


def test_random_cubic_validation():
    with pytest.raises(RangeError):
        random_cubic(7, seed=1)
    with pytest.raises(RangeError):
        random_cubic(2, seed=1)


def test_random_cubic_gives_up_after_the_attempt_cap(monkeypatch):
    monkeypatch.setattr(generators_mod, "RANDOM_CUBIC_ATTEMPTS", 0)
    with pytest.raises(GenerationError, match="no simple 3-regular pairing on n=8 after 0 attempts"):
        random_cubic(8, seed=1)


def test_random_cubic_small_connected_sample():
    # Not guaranteed in general; pinned for the seeds used elsewhere.
    for n, seed in [(10, 1), (20, 7), (100, 13)]:
        assert len(components(random_cubic(n, seed))) == 1
