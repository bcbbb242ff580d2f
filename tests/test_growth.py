import math
import random
import tracemalloc
from collections import deque
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import growthtw.growth as growth_mod
from growthtw.constructions import subdivide_in_host, subdivide_uniform_superlinear
from growthtw.errors import CapacityError, PreconditionError, RangeError
from growthtw.generators import (
    blow_up,
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
from growthtw.harness import default_corpus, identity_tree_embedding, random_tree


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
    assert [brute_force_growth_edge_subsets(g, r) for r in range(1, 4)] == [6, 6, 6]
    assert [brute_force_growth(g, r) for r in range(1, 4)] == [6, 6, 6]


def test_brute_force_budget():
    # Only the non-isolated vertices bound the connected-set walk, so K8's
    # 28 edges are no refusal.
    k8 = complete(8)
    profile = growth_profile(k8, k8.n)
    assert [brute_force_growth(k8, r) for r in range(1, 9)] == [profile.f(r) for r in range(1, 9)]
    with pytest.raises(CapacityError):
        brute_force_growth_edge_subsets(complete(6), 1)  # 15 edges
    # A perfect matching on 18 vertices has 9 edges but 18 non-isolated
    # vertices.
    matching = Graph(18, [(2 * i, 2 * i + 1) for i in range(9)])
    with pytest.raises(CapacityError, match="refuses 18 non-isolated vertices"):
        brute_force_growth(matching, 1)


def test_brute_force_refuses_the_empty_graph_and_radius_zero():
    for oracle in (brute_force_growth, brute_force_growth_edge_subsets):
        with pytest.raises(PreconditionError, match="^growth is undefined for the empty graph$"):
            oracle(Graph(0), 1)
        for r in (0, -1):
            with pytest.raises(RangeError, match=f"^r must be >= 1, got {r}$"):
                oracle(path(3), r)


def full_radius(adj, sources=None):
    """Radius of the graph given as {vertex: neighbours}, from every
    eccentricity in full, or None if it is disconnected.  With `sources`,
    the least eccentricity among those vertices only."""
    eccs = []
    for s in adj if sources is None else sources:
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) != len(adj):
            return None
        eccs.append(max(dist.values()))
    return min(eccs)


def keep_largest(best, rad, size):
    if rad is not None and best.get(rad, 0) < size:
        best[rad] = size


def reference_edge_subset_table(g):
    best = {0: 1}
    edges = list(g.edges())
    for size in range(1, len(edges) + 1):
        for subset in combinations(edges, size):
            adj = {}
            for u, v in subset:
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
            keep_largest(best, full_radius(adj), len(adj))
    return tuple(sorted(best.items()))


def reference_radius_table(g):
    best = {0: 1}
    support = [v for v in range(g.n) if g.adj[v]]
    for size in range(2, len(support) + 1):
        for verts in combinations(support, size):
            adj = {v: [w for w in g.adj[v] if w in verts] for v in verts}
            keep_largest(best, full_radius(adj), size)
    return tuple(sorted(best.items()))


def labelled_path(labels):
    return Graph(len(labels), list(zip(labels, labels[1:])))


# Paths whose centre has the highest and the lowest id, a path with two
# centres (ids 5 and 6 last), and a long path whose centre comes last.
CENTRE_PATHS = [
    labelled_path([0, 1, 4, 2, 3]),
    labelled_path([1, 2, 0, 3, 4]),
    labelled_path([0, 1, 2, 5, 6, 3, 4]),
    labelled_path([0, 2, 4, 6, 8, 10, 12, 11, 9, 7, 5, 3, 1]),
]


def test_brute_force_tables_equal_the_full_eccentricity_references():
    rng = random.Random(12)
    graphs = list(CENTRE_PATHS) + [random_small_graph(rng, max_n=9, max_m=12) for _ in range(30)]
    graphs += [g for s in range(6) for g in (random_tree(12, s), random_cubic(8, s))]
    # The path 0-1-2-3-4, the lone vertex 5 and K4 on 6-9: the path alone
    # gives radius 2 and K4 alone radius 1 with 4 vertices, so a connected-set
    # walk that missed either component, or an edge-count skip that dropped a
    # connected subset such as the path itself, would change the tables.
    graphs.append(two_components(two_components(path(5), Graph(1)), complete(4)))
    # The ends of the radius window [1 or 2, s // 2] that lets a subgraph on
    # s vertices skip its BFS: a perfect matching (maximum degree 1, so no
    # size above 2 has a radius left), a star (radius 1 at every size), K5,
    # a path (radius exactly s // 2), and star(5) beside path(7), whose path
    # raises radius-2 and radius-3 entries after the star has settled the
    # small sizes.
    graphs += [Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)]), star(7), complete(5), path(9),
               two_components(star(5), path(7))]
    for g in graphs:
        assert growth_mod._edge_subset_radius_table.__wrapped__(g) == reference_edge_subset_table(g), g
        assert growth_mod._radius_table.__wrapped__(g) == reference_radius_table(g), g
    # The vertex-subset table alone on the 15-edge graphs of the oracles workload.
    for s in range(6):
        g = random_cubic(10, s)
        assert growth_mod._radius_table.__wrapped__(g) == reference_radius_table(g), g


def test_brute_force_tables_skip_the_radius_of_settled_sizes(monkeypatch):
    # A subgraph on s vertices whose whole radius window already holds s
    # vertices in the table cannot raise it, so its BFS is skipped: 54 of the
    # 4,095 edge subsets of this cubic graph and 67 of the connected sets of
    # the 10-vertex one are measured, where every candidate was before.
    calls = []
    mask_radius = growth_mod._mask_radius

    def counting(adj_masks, mask):
        calls.append(mask)
        return mask_radius(adj_masks, mask)

    monkeypatch.setattr(growth_mod, "_mask_radius", counting)
    for table, reference, g in (
        (growth_mod._edge_subset_radius_table, reference_edge_subset_table, random_cubic(8, 1)),
        (growth_mod._radius_table, reference_radius_table, random_cubic(10, 1)),
    ):
        calls.clear()
        assert table.__wrapped__(g) == reference(g), g
        assert len(calls) <= 100, (g, len(calls))


def test_mask_radius_equals_every_eccentricity():
    # Every vertex subset of seeded random graphs on up to 9 vertices, as the
    # induced subgraph.  The radius is at least ceil(e / 2) for the first
    # source's eccentricity e, and the search stops there; the subsets whose
    # radius meets that floor at an odd e >= 3 exercise the rounding.
    rng = random.Random(40)
    stopped_at_odd = 0
    for _ in range(12):
        g = random_small_graph(rng, max_n=9, max_m=16)
        adj_masks = [sum(1 << w for w in nbrs) for nbrs in g.adj]
        for mask in range(1, 1 << g.n):
            sub = {v: [w for w in g.adj[v] if mask >> w & 1] for v in range(g.n) if mask >> v & 1}
            rad = full_radius(sub)
            assert growth_mod._mask_radius(adj_masks, mask) == rad, (g, mask)
            if rad is not None:
                e = full_radius(sub, sources=[min(sub)])
                stopped_at_odd += e % 2 == 1 and e >= 3 and rad == (e + 1) // 2
    assert stopped_at_odd > 0


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
    assert growth_constant(strong_product(path(4), path(4))) == 9


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


def record_ball_sizes(monkeypatch) -> list:
    """Patch `_ball_sizes` to append the source of each call to the list
    it returns."""
    calls = []
    ball_sizes = growth_mod._ball_sizes

    def counting(adj, v, seen):
        calls.append(v)
        return ball_sizes(adj, v, seen)

    monkeypatch.setattr(growth_mod, "_ball_sizes", counting)
    return calls


def test_verify_growth_bound_runs_no_bfs_where_the_bound_clears_n(monkeypatch):
    # f(r) <= n, so a radius with bound(r) >= n cannot fail.
    calls = record_ball_sizes(monkeypatch)
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
    calls = record_ball_sizes(monkeypatch)
    g = grid(6)
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


def moore_steps(delta, size, level, target):
    """Reference for `growth._threshold`, the Moore bound stated per source:
    the least j >= 0 such that a ball of `size` vertices, `level` at its
    last distance, may reach `target` vertices j radii later in a graph of
    maximum degree `delta`; math.inf if it never can."""
    if size >= target:
        return 0
    fan = delta - 1
    if fan <= 0 or level == 0:
        return math.inf
    if fan == 1:
        return -(-(target - size) // level)
    steps = 0
    while size < target:
        level *= fan
        size += level
        steps += 1
    return steps


@given(
    n=st.integers(1, 10**6),
    delta=st.integers(0, 6),
    r=st.integers(1, 3000),
    num=st.integers(1, 10**6),
    den=st.integers(1, 60),
    size=st.integers(0, 10**6),
    level=st.integers(0, 10**6),
)
@example(n=900, delta=4, r=2, num=5, den=1, size=13, level=8)
@example(n=20000, delta=2, r=1, num=3, den=1, size=3, level=2)
@example(n=50, delta=3, r=3, num=6, den=1, size=18, level=0)
@example(n=10**6, delta=6, r=1, num=7, den=1, size=7, level=6)
@settings(max_examples=400, deadline=None)
def test_threshold_equals_the_per_source_moore_rule(n, delta, r, num, den, size, level):
    # One threshold per (radius, best) decides every ball of that radius as
    # the per-source rule j > 0 and moore_steps(...) <= j does.
    j = -(-n * den // num) - r - 1
    expected = j > 0 and moore_steps(delta, size, level, num * (r + j) // den + 1) <= j
    bar = growth_mod._threshold(n, delta, r, num, den)
    assert (bar is not None and size + level * bar[1] >= bar[0]) == expected


# growth_constant of every default_corpus() graph, as the corpus benchmark
# pins it.
CORPUS_GROWTH_CONSTANTS = {
    "path-10": Fraction(3), "path-50": Fraction(3), "cycle-9": Fraction(3),
    "cycle-50": Fraction(3), "star-10": Fraction(10), "star-40": Fraction(40),
    "complete-5": Fraction(5), "cbt-15": Fraction(5), "cbt-63": Fraction(63, 5),
    "grid-3": Fraction(5), "grid-4": Fraction(11, 2), "grid-8": Fraction(51, 5),
    "random-tree-200": Fraction(141, 4), "cubic-20": Fraction(6),
    "cubic-100": Fraction(33, 2), "product-P8xP8": Fraction(49, 3),
    "product-P4^3": Fraction(32), "path-2000": Fraction(3), "cycle-500": Fraction(3),
    "grid-20": Fraction(315, 13), "random-tree-1000": Fraction(423, 4),
    "cubic-500": Fraction(443, 8), "product-P12xP12": Fraction(121, 5),
    "product-P6^3": Fraction(72),
}


def test_growth_constant_of_the_default_corpus():
    assert {name: growth_constant(g) for name, g in default_corpus()} == CORPUS_GROWTH_CONSTANTS


@pytest.mark.parametrize("make, c", [
    (lambda: grid(30), Fraction(755, 21)),
    (lambda: random_cubic(5000, 1), Fraction(2357, 6)),
])
def test_growth_constant_of_swept_graphs(monkeypatch, make, c):
    monkeypatch.setattr(growth_mod, "_ball_sizes", forbid("_ball_sizes"))
    assert growth_constant(make()) == c


def test_a_swept_ball_that_meets_the_threshold_exactly_stays(monkeypatch):
    # In random_cubic(16, 137) only vertex 2 has eccentricity 3.  At r = 2
    # the best is 10/2 = 5, so j = 1 and need = 16; B_2(2) has 8 vertices,
    # 4 of them at distance 2, so its Moore bound 8 + 4*2 meets need
    # exactly, and indeed B_3(2) is all 16 vertices: c = 16/3, not 5.
    monkeypatch.setattr(growth_mod, "_ball_sizes", forbid("_ball_sizes"))
    assert growth_constant(random_cubic(16, 137)) == Fraction(16, 3)


def test_a_ball_that_meets_the_threshold_exactly_stays_in_the_per_source_bfs(monkeypatch):
    # By per-source BFS on random_cubic(10, 1), source 0 raises the best to
    # 9/2 at r = 2.  Then the threshold at r = 1 is need = 10 with gain 2,
    # which every B_1(v), 4 vertices with 3 at distance 1, meets exactly;
    # B_2(3) is all 10 vertices, so c = 5, not 9/2.
    monkeypatch.setattr(growth_mod, "_sweep", forbid("_sweep"))
    monkeypatch.setattr(growth_mod, "SWEEP_VERTEX_LIMIT", 0)
    assert growth_constant(random_cubic(10, 1)) == 5


def test_growth_constant_of_a_grid_by_per_source_bfs(monkeypatch):
    monkeypatch.setattr(growth_mod, "_sweep", forbid("_sweep"))
    monkeypatch.setattr(growth_mod, "SWEEP_VERTEX_LIMIT", 0)
    assert growth_constant(grid(30)) == Fraction(755, 21)


def test_growth_profile_refuses_r_max_past_the_budget():
    with pytest.raises(CapacityError):
        growth_profile(path(3), VERTEX_BUDGET + 1)
    assert growth_profile(path(3), 5).values == (3, 3, 3, 3, 3)


def bfs_profile(g: Graph, r_max: int):
    """f(1), ..., f(r_max) by one deque BFS per source, to its whole
    component, sharing nothing with growth.py."""
    values = [1] * r_max
    for v in range(g.n):
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        for r in range(1, r_max + 1):
            values[r - 1] = max(values[r - 1], sum(1 for d in dist.values() if d <= r))
    return tuple(values)


@st.composite
def graphs_and_radii(draw):
    """A graph from either strategy above, and r_max = 1, r_max = n, or any
    r_max from 1 to n + 3."""
    g = draw(st.one_of(graphs_with_isolated_vertices(), sweep_graphs(max_n=60)))
    r_max = draw(st.one_of(st.just(1), st.integers(1, g.n + 3), st.just(g.n)))
    return g, r_max


@given(graphs_and_radii())
@example((Graph(1), 1))
@example((Graph(5), 7))
@example((path(30), 4))
@example((two_components(path(12), Graph(3)), 1))
@example((two_components(star(4), path(9)), 20))
@example((two_components(grid(5), random_cubic(12, 1)), 3))
@settings(max_examples=150, deadline=None)
def test_swept_profile_equals_a_per_source_bfs(case):
    g, r_max = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(growth_mod, "_ball_sizes", forbid("_ball_sizes"))
        swept = growth_profile(g, r_max)
    assert swept.values == bfs_profile(g, r_max)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(growth_mod, "PROFILE_SWEEP_LIMIT", 0)
        patch.setattr(growth_mod, "_ball_rounds", forbid("_ball_rounds"))
        assert growth_profile(g, r_max) == swept


def relabelled(g: Graph, seed: int) -> Graph:
    order = list(range(g.n))
    random.Random(seed).shuffle(order)
    return Graph(g.n, [(order[u], order[v]) for u, v in g.edges()])


def clique_on_path(t: int, k: int) -> Graph:
    """K_t whose last vertex is the first of a path on k vertices: the
    other t - 1 clique vertices are closed twins, the path has none."""
    edges = [(u, v) for u in range(t) for v in range(u + 1, t)]
    return Graph(t + k - 1, edges + [(v, v + 1) for v in range(t - 1, t + k - 2)])


def closed_neighbourhood(g: Graph, v: int):
    return tuple(sorted((*g.adj[v], v)))


@st.composite
def twin_graphs(draw, max_n=72):
    """Graphs made of closed twins in part: relabelled blow-ups, so that
    twins do not have consecutive ids, next to K2 components, cliques
    glued to paths, isolated vertices and twin-free graphs."""
    parts = draw(st.lists(
        st.one_of(
            st.builds(relabelled, st.builds(blow_up, sweep_graphs(max_n=14), st.integers(1, 4)),
                      st.integers(0, 1000)),
            st.just(path(2)),
            st.builds(clique_on_path, st.integers(2, 6), st.integers(1, 12)),
            st.builds(Graph, st.integers(1, 3)),
            sweep_graphs(max_n=20),
        ),
        min_size=1, max_size=4,
    ))
    g = parts[0]
    for part in parts[1:]:
        if g.n + part.n > max_n:
            break
        g = two_components(g, part)
    return relabelled(g, draw(st.integers(0, 1000)))


@given(twin_graphs())
@example(relabelled(blow_up(grid(3), 3), 1))
@example(relabelled(blow_up(random_cubic(10, 2), 4), 5))
@example(two_components(path(2), two_components(path(2), path(2))))
@example(two_components(clique_on_path(5, 8), Graph(2)))
@example(two_components(clique_on_path(4, 1), random_cubic(12, 1)))
@settings(max_examples=60, deadline=None)
def test_twin_classes_equal_the_ball_and_bfs_references(g):
    c = ball_growth_constant(g)
    profile = bfs_profile(g, g.n)
    assert growth_constant(g) == c
    assert growth_profile(g, g.n).values == profile
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(growth_mod, "SWEEP_VERTEX_LIMIT", 0)
        patch.setattr(growth_mod, "PROFILE_SWEEP_LIMIT", 0)
        patch.setattr(growth_mod, "_ball_rounds", forbid("_ball_rounds"))
        assert growth_constant(g) == c
        assert growth_profile(g, g.n).values == profile


@given(st.one_of(graphs_with_isolated_vertices(), sweep_graphs(max_n=30)),
       st.integers(1, 4), st.booleans())
@example(random_cubic(20, 3), 4, True)
@example(two_components(grid(4), Graph(2)), 3, False)
@settings(max_examples=60, deadline=None)
def test_a_blow_up_scales_growth_by_its_factor(g, t, swept):
    # B_r((v, i)) = B_r(v) x [t] for every r >= 1, so each f(r) and c scale
    # by t.  The blow-up's t-sets are classes of closed twins, far past the
    # 16 vertices of the brute-force oracles.
    h = blow_up(g, t)
    with pytest.MonkeyPatch.context() as patch:
        if not swept:
            patch.setattr(growth_mod, "SWEEP_VERTEX_LIMIT", 0)
            patch.setattr(growth_mod, "PROFILE_SWEEP_LIMIT", 0)
            patch.setattr(growth_mod, "_ball_rounds", forbid("_ball_rounds"))
        assert growth_constant(h) == t * growth_constant(g)
        assert growth_profile(h, g.n).values == tuple(t * f for f in growth_profile(g, g.n).values)


@pytest.mark.parametrize("seed", [0, 1])
def test_dense_workload_twin_class_counts(seed):
    # One ball per class of closed twins in the first round of the sweep.
    dense = [
        (strong_product(complete(10), path(30)), 30),
        (strong_product(random_tree(80, seed), complete(6)), 80),
        (blow_up(random_cubic(60, seed), 4), 60),
        (strong_product(strong_product(path(8), path(8)), path(8)), 512),
    ]
    for g, classes in dense:
        balls = next(growth_mod._ball_rounds(g.adj))
        assert len(balls) == classes
        assert sorted(map(int.bit_count, balls)) == sorted(
            {closed_neighbourhood(g, v): len(g.adj[v]) + 1 for v in range(g.n)}.values())


@pytest.mark.parametrize("g", [
    strong_product(complete(10), path(30)),
    relabelled(blow_up(random_cubic(60, 1), 4), 3),
    two_components(clique_on_path(6, 9), relabelled(blow_up(grid(5), 3), 2)),
    random_cubic(40, 2),
])
def test_the_per_source_bfs_runs_once_per_twin_class(monkeypatch, g):
    c, swept = growth_constant(g), growth_profile(g, g.n)
    calls = record_ball_sizes(monkeypatch)
    monkeypatch.setattr(growth_mod, "SWEEP_VERTEX_LIMIT", 0)
    assert growth_constant(g) == c == ball_growth_constant(g)
    assert calls
    assert len({closed_neighbourhood(g, v) for v in calls}) == len(calls)
    # The profile reads every source's ball, so it runs exactly one per class.
    calls.clear()
    monkeypatch.setattr(growth_mod, "PROFILE_SWEEP_LIMIT", 0)
    assert growth_profile(g, g.n) == swept
    assert swept.values == bfs_profile(g, g.n)
    classes = {closed_neighbourhood(g, v) for v in range(g.n)}
    assert len({closed_neighbourhood(g, v) for v in calls}) == len(calls) == len(classes)


def quadratic(r):
    return Fraction(r * r + 3 * r + 1)


def host_subdivision(tree: Graph) -> Graph:
    return subdivide_in_host(tree, identity_tree_embedding(tree), 1).result


def uniform_subdivision(g: Graph) -> Graph:
    return subdivide_uniform_superlinear(g, quadratic).result


def linear(slope, offset=1):
    return lambda r: Fraction(slope * r + offset)


# The t5 suite's and the oracles benchmark's growth certificates: the
# graph, its (n, m), the bound, the largest radius verify_growth_bound
# profiles (the last r with bound(r) < n) and its verdict.  The last three
# bounds fail, each at its first violation (r, f(r)).
CERTIFICATES = [
    ("host P2", lambda: host_subdivision(path(2)), (5, 4), linear(2), 1, BoundVerdict(True)),
    ("host cbt-7", lambda: host_subdivision(complete_binary_tree(7)), (309, 308), linear(4),
     76, BoundVerdict(True)),
    ("host star-6", lambda: host_subdivision(star(6)), (61, 60), linear(6), 9,
     BoundVerdict(True)),
    ("uniform K4", lambda: uniform_subdivision(complete(4)), (124, 126), quadratic, 9,
     BoundVerdict(True)),
    ("uniform cubic-8, seed 0", lambda: uniform_subdivision(random_cubic(8, 0)), (536, 540),
     quadratic, 21, BoundVerdict(True)),
    ("uniform cubic-8, seed 1", lambda: uniform_subdivision(random_cubic(8, 1)), (536, 540),
     quadratic, 21, BoundVerdict(True)),
    ("host cbt-7 under 2r + 1", lambda: host_subdivision(complete_binary_tree(7)), (309, 308),
     linear(2), 153, BoundVerdict(False, (1, 4))),
    ("host cbt-7 under 2r + 14", lambda: host_subdivision(complete_binary_tree(7)),
     (309, 308), linear(2, 14), 147, BoundVerdict(False, (14, 43))),
    ("uniform cubic-8, seed 0, under 4r", lambda: uniform_subdivision(random_cubic(8, 0)),
     (536, 540), linear(4, 0), 133, BoundVerdict(False, (79, 318))),
]


@pytest.mark.parametrize("name, make, nm, bound, r_max, verdict", CERTIFICATES)
def test_growth_certificates(monkeypatch, name, make, nm, bound, r_max, verdict):
    g = make()
    assert (g.n, g.m) == nm
    assert max(r for r in range(1, g.n + 1) if bound(r) < g.n) == r_max
    assert g.n <= growth_mod.PROFILE_SWEEP_LIMIT
    monkeypatch.setattr(growth_mod, "_ball_sizes", forbid("_ball_sizes"))
    assert verify_growth_bound(g, bound) == verdict


def test_profiles_of_the_certificate_graphs():
    # GrowthProfile over every radius: c, its radius, and a checksum.
    for g, c, radius, total in [
        (host_subdivision(complete_binary_tree(7)), 4, 1, 74026),
        (uniform_subdivision(complete(4)), 4, 1, 13216),
        (uniform_subdivision(random_cubic(8, 0)), Fraction(202, 45), 90, 251893),
    ]:
        profile = growth_profile(g, g.n)
        assert (profile.growth_constant, profile.argmax_radius) == (c, radius)
        assert sum(profile.values) == total and profile.values[-1] == g.n


def test_the_host_subdivision_of_path_6_stays_on_per_source_bfs():
    # n = 8749 and r_max = 2915 under 3r + 1: 17 s by BFS, 43 s swept.  Only
    # the sizes are read here; neither profile runs.
    g = host_subdivision(path(6))
    assert (g.n, g.m) == (8749, 8748)
    assert max(r for r in range(1, g.n + 1) if 3 * r + 1 < g.n) == 2915
    assert g.n > growth_mod.PROFILE_SWEEP_LIMIT


def test_the_profile_sweeps_up_to_2048_vertices(monkeypatch):
    calls = record_ball_sizes(monkeypatch)
    assert growth_mod.PROFILE_SWEEP_LIMIT == 2048
    assert growth_profile(path(2048), 1).values == (3,)
    assert calls == []
    assert growth_profile(path(2049), 1).values == (3,)
    assert calls == list(range(2049))


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
def test_growth_constant_of_a_cube_of_paths_is_twice_k_squared(k):
    """c(P_k^{⊠3}) = 2k² for even k >= 4, up to k³ = 1,728 vertices.

    Distances in a strong product are the largest coordinate distance, so
    a radius-r ball is a product of three path balls and has at most
    (2r + 1)³ vertices.  On 1 <= r < k/2 that is below 2k²·r:
    (2r + 1)³/r = 8r² + 12r + 6 + 1/r is convex, so it is largest at an
    end of the range; at r = 1 it is 27 < 2k² as k >= 4, and at
    r = k/2 - 1 it is (k - 1)³/(k/2 - 1) < 2k² as k² - 3k + 1 > 0.  At
    r >= k/2 every ball has at most n = k³ vertices and k³/r <= 2k², with
    equality at the centre (k/2, k/2, k/2), whose eccentricity is k/2.

    The same count fails for d = 2: c(P4 ⊠ P4) = 9 at r = 1, not
    n/(k/2) = 8 (`test_square_product_growth`)."""
    cube = strong_product(strong_product(path(k), path(k)), path(k))
    assert growth_constant(cube) == 2 * k * k
