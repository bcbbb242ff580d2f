import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from growthtw.decomposition import build_tree_decomposition, exact_treewidth
from growthtw.errors import CapacityError, PreconditionError, StructureError
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
from growthtw.graphs import Graph
from growthtw.growth import growth_constant
import growthtw.stacklayout as stacklayout
from growthtw.stacklayout import (
    StackLayout,
    check_stack_layout,
    exact_stack_number,
    layout_from_decomposition,
    stack_number_lower_bound,
)


def one_stack(g, order):
    return StackLayout(order=tuple(order), assignment={e: 1 for e in g.edges()}, k=1)


def test_checker_rejects_k4_single_stack():
    g = complete(4)
    verdict = check_stack_layout(g, one_stack(g, range(4)))
    assert not verdict.valid
    # The offending pair interleaves: (0,2) and (1,3).
    assert set(verdict.first_crossing) == {(0, 2), (1, 3)}


def test_checker_accepts_k4_two_stacks():
    g = complete(4)
    assignment = {e: 1 for e in g.edges()}
    assignment[(1, 3)] = 2
    layout = StackLayout(order=(0, 1, 2, 3), assignment=assignment, k=2)
    assert check_stack_layout(g, layout).valid


def test_checker_structural_errors():
    g = path(3)
    with pytest.raises(StructureError):
        check_stack_layout(g, one_stack(g, (0, 1)))  # not a permutation
    with pytest.raises(StructureError):
        check_stack_layout(
            g, StackLayout(order=(0, 1, 2), assignment={(0, 1): 1}, k=1)
        )  # missing edge
    with pytest.raises(StructureError):
        check_stack_layout(
            g,
            StackLayout(order=(0, 1, 2), assignment={(0, 1): 1, (1, 2): 5}, k=2),
        )  # stack id out of range


def test_nesting_is_fine_sharing_endpoint_is_fine():
    g = Graph(4, [(0, 3), (1, 2), (0, 1)])
    assert check_stack_layout(g, one_stack(g, (0, 1, 2, 3))).valid


def unpruned_stack_number(g):
    """Brute force over every vertex order without symmetry reductions: the
    answer is the least k such that some order admits a k-stack assignment,
    found by plain backtracking."""
    edges = list(g.edges())
    if not edges:
        return 0

    def fits(spans, k):
        stacks = [[] for _ in range(k)]

        def place(i):
            if i == len(spans):
                return True
            pa, pb = spans[i]
            for s in range(k):
                if any(pa < pc < pb < pd or pc < pa < pd < pb for pc, pd in stacks[s]):
                    continue
                stacks[s].append((pa, pb))
                if place(i + 1):
                    return True
                stacks[s].pop()
            return False

        return place(0)

    for k in range(1, len(edges) + 1):
        for order in permutations(range(g.n)):
            pos = {v: i for i, v in enumerate(order)}
            spans = [(min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in edges]
            if fits(spans, k):
                return k
    raise AssertionError("one stack per edge always fits")


@pytest.mark.parametrize(
    "g,expected",
    [
        (path(5), 1),
        (star(5), 1),
        (complete_binary_tree(7), 1),
        (cycle(6), 1),
        (complete(4), 2),
        (complete(5), 3),
        (complete(6), 3),
        (grid(2), 1),
    ],
)
def test_exact_stack_number_known(g, expected):
    k, layout = exact_stack_number(g)
    assert k == expected
    assert layout.k == k
    assert check_stack_layout(g, layout).valid


def test_exact_stack_number_matches_unpruned():
    import random

    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(1, 6)
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(possible)
        g = Graph(n, possible[: rng.randint(0, len(possible))])
        k, layout = exact_stack_number(g)
        assert k == unpruned_stack_number(g)
        assert check_stack_layout(g, layout).valid


def test_exact_stack_number_edge_cases():
    k, layout = exact_stack_number(Graph(3))
    assert k == 0 and layout.assignment == {}
    with pytest.raises(CapacityError):
        exact_stack_number(path(9))


def test_layout_from_decomposition_valid():
    for g in [
        path(20),
        cycle(12),
        grid(4),
        complete(5),
        complete_binary_tree(15),
        complete(9),
        random_cubic(40, seed=5),
        strong_product(path(12), complete(3)),
    ]:
        c = growth_constant(g)
        td = build_tree_decomposition(g, c)
        layout = layout_from_decomposition(g, td)
        assert check_stack_layout(g, layout).valid
        assert layout.k >= 1
        assert (layout.assignment, layout.k) == reference_first_fit(g, layout.order)


def test_layout_requires_valid_decomposition():
    from growthtw.decomposition import TreeDecomposition

    g = path(3)
    bad = TreeDecomposition(bags=(frozenset({0, 1}),), edges=())
    with pytest.raises(PreconditionError):
        layout_from_decomposition(g, bad)


def test_layout_json_shape():
    g = complete(4)
    k, layout = exact_stack_number(g)
    data = layout.to_json_dict()
    assert data["k"] == k
    assert sorted((d["u"], d["v"]) for d in data["stacks"]) == list(g.edges())
    assert sorted(data["order"]) == [0, 1, 2, 3]


# ------------------------------------------------ references for the fast paths

def crosses(pos, e1, e2):
    """Pairwise interleaving of two edges under the positions pos."""
    pa, pb = sorted((pos[e1[0]], pos[e1[1]]))
    pc, pd = sorted((pos[e2[0]], pos[e2[1]]))
    return pa < pc < pb < pd or pc < pa < pd < pb


def reference_first_fit(g, order):
    """O(m^2) first-fit: edges by (left ascending, right descending), each to
    the lowest stack holding no edge it crosses."""
    pos = {v: i for i, v in enumerate(order)}
    edges = sorted(
        g.edges(),
        key=lambda e: (min(pos[e[0]], pos[e[1]]), -max(pos[e[0]], pos[e[1]])),
    )
    stacks = []
    assignment = {}
    for e in edges:
        for s, content in enumerate(stacks):
            if not any(crosses(pos, e, f) for f in content):
                break
        else:
            s = len(stacks)
            stacks.append([])
        stacks[s].append(e)
        assignment[e] = s + 1
    return assignment, len(stacks)


def pairwise_valid(g, layout):
    pos = {v: i for i, v in enumerate(layout.order)}
    edges = list(layout.assignment)
    return not any(
        layout.assignment[e1] == layout.assignment[e2] and crosses(pos, e1, e2)
        for i, e1 in enumerate(edges)
        for e2 in edges[i + 1:]
    )


@st.composite
def graphs(draw, max_n=16):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    return Graph(n, edges)


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_first_fit_matches_quadratic_reference(g):
    layout = layout_from_decomposition(g, build_tree_decomposition(g, growth_constant(g)))
    assert sorted(layout.order) == list(range(g.n))
    assert (layout.assignment, layout.k) == reference_first_fit(g, layout.order)
    assert check_stack_layout(g, layout).valid


@st.composite
def random_layouts(draw):
    g = draw(graphs(max_n=16))
    order = draw(st.permutations(range(g.n)))
    k = draw(st.integers(min_value=1, max_value=3))
    stacks = draw(st.lists(st.integers(1, k), min_size=g.m, max_size=g.m))
    layout = StackLayout(order=tuple(order), assignment=dict(zip(g.edges(), stacks)), k=k)
    return g, layout


@given(random_layouts())
@settings(max_examples=200, deadline=None)
def test_checker_agrees_with_pairwise_interleaving(case):
    g, layout = case
    verdict = check_stack_layout(g, layout)
    assert verdict.valid == pairwise_valid(g, layout)
    if verdict.valid:
        assert verdict.first_crossing is None
    else:
        # The reported pair is two edges on one stack that really interleave,
        # so in particular it never shares an endpoint.
        e1, e2 = verdict.first_crossing
        pos = {v: i for i, v in enumerate(layout.order)}
        assert layout.assignment[e1] == layout.assignment[e2]
        assert len(set(e1) | set(e2)) == 4
        assert crosses(pos, e1, e2)


@pytest.mark.parametrize("g", [star(2), star(4), star(6), complete(3)])
def test_edges_sharing_an_endpoint_never_cross(g):
    # Every two edges of a star or a triangle share an endpoint, so one stack
    # holds them under every order.
    for order in permutations(range(g.n)):
        assert check_stack_layout(g, one_stack(g, order)).valid


def test_checker_reports_the_crossing_pair():
    # Spans 0-2 and 2-4 touch at 2 on stack 1; 1-3 crosses 0-2 and 2-4.
    g = Graph(6, [(0, 2), (1, 3), (2, 4), (3, 5)])
    stacks = {(0, 2): 1, (2, 4): 1, (1, 3): 2, (3, 5): 2}
    assert check_stack_layout(g, StackLayout(tuple(range(6)), stacks, 2)).valid
    verdict = check_stack_layout(g, StackLayout(tuple(range(6)), {**stacks, (1, 3): 1}, 2))
    assert not verdict.valid
    assert verdict.first_crossing == ((0, 2), (1, 3))


# ------------------------------------------ the exact search's lower bound

@pytest.mark.parametrize(
    "g,expected",
    [
        (Graph(4), 0),
        (path(5), 1),
        (cycle(8), 1),
        (complete(3), 1),
        (complete(4), 2),  # 3-core and density both give 2
        (complete(5), 3),
        (complete(8), 4),  # ceil(n/2) on every clique with n >= 4
        (random_cubic(8, 0), 2),  # 3-core; density gives only 1
        (grid(3), 1),  # 2-degenerate, so no 3-core
    ],
)
def test_stack_number_lower_bound_values(g, expected):
    assert stack_number_lower_bound(g) == expected


@given(graphs(max_n=7))
@settings(max_examples=60, deadline=None)
def test_stack_number_lower_bound_is_a_lower_bound(g):
    k, _ = exact_stack_number(g)
    assert stack_number_lower_bound(g) <= k


def test_exact_stack_number_stops_at_the_lower_bound(monkeypatch):
    calls = []
    real = stacklayout._conflict_masks

    def counted(edges, pos):
        calls.append(pos)
        return real(edges, pos)

    monkeypatch.setattr(stacklayout, "_conflict_masks", counted)
    # sn(K8) = 4 = ceil((m - n) / (n - 3)): the first order reaches it.
    assert exact_stack_number(complete(8))[0] == 4
    assert len(calls) == 1
    # A cubic graph has a 3-core, so 2 stacks stop the search; a full one
    # builds 7!/2 = 2520 conflict graphs.
    calls.clear()
    assert exact_stack_number(random_cubic(8, 0))[0] == 2
    assert 1 <= len(calls) < 50


def full_search_stack_number(g):
    """The search without a lower bound: every order, in the same enumeration
    order, gets its exact chromatic number by ascending k, and the first
    order to beat all earlier ones is kept with its colouring at that k."""
    edges = list(g.edges())
    if not edges:
        return 0, tuple(range(g.n)), {}
    best = None
    for perm in permutations(range(1, g.n)):
        if len(perm) >= 2 and perm[0] > perm[-1]:
            continue
        order = (0,) + perm
        masks = stacklayout._conflict_masks(edges, {v: i for i, v in enumerate(order)})
        k = 1
        while (colors := stacklayout._colorable(masks, k)) is None:
            k += 1
        if best is None or k < best[0]:
            best = (k, order, dict(zip(edges, colors)))
    return best


def identity_graphs():
    """Every labelled graph on at most 5 vertices, then seeded random graphs
    on 6 and 7 vertices."""
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
    rng = random.Random(9)
    for n in (6, 6, 6, 6, 7, 7):
        density = rng.random()
        yield Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])


def test_exact_stack_number_equals_the_full_search():
    for g in identity_graphs():
        k, layout = exact_stack_number(g)
        assert (k, layout.order, layout.assignment) == full_search_stack_number(g), g
        assert layout.k == k
