import inspect
import random
import sys
from itertools import combinations, permutations
from typing import Dict

import pytest
from hypothesis import given, settings, strategies as st

from growthtw.decomposition import build_tree_decomposition, exact_treewidth
from growthtw.errors import CapacityError, PreconditionError, StructureError
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
from growthtw.graphs import Graph
from growthtw.growth import growth_constant
import growthtw.stacklayout as stacklayout
from growthtw.stacklayout import (
    LayoutVerdict,
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
    # The message names the bad id, not the valid id k listed before it.
    with pytest.raises(StructureError, match=r"stack id 5 outside \[1,2\]"):
        check_stack_layout(
            g,
            StackLayout(order=(0, 1, 2), assignment={(0, 1): 2, (1, 2): 5}, k=2),
        )


def test_checker_bounds_stack_ids_by_k():
    # A layout of k <= 0 stacks has no stack to hold an edge.
    g = Graph(2, [(0, 1)])
    for k in (0, -3):
        with pytest.raises(StructureError, match=rf"stack id 1 outside \[1,{k}\]"):
            check_stack_layout(g, StackLayout((0, 1), {(0, 1): 1}, k))
    assert check_stack_layout(g, StackLayout((0, 1), {(0, 1): 1}, 1)).valid
    assert check_stack_layout(Graph(3), StackLayout((0, 1, 2), {}, 0)).valid
    assert check_stack_layout(Graph(0), StackLayout((), {}, 0)).valid


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
        (path(2), 1),
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


def first_fit_counting(g, pos, order, marker):
    """_first_fit's result, and how often it executed the line of its source
    that holds marker."""
    code = stacklayout._first_fit.__code__
    lines, start = inspect.getsourcelines(stacklayout._first_fit)
    line = start + next(i for i, text in enumerate(lines) if marker in text)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line" and frame.f_lineno == line:
            count += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        result = stacklayout._first_fit(g, pos, order)
    finally:
        sys.settrace(previous)
    return result, count


def first_fit_counting_list_reads(g, pos, order):
    """_first_fit's result, and how often its scan read a stack's list: the
    executions of the line that fetches the list for a stale top."""
    return first_fit_counting(g, pos, order, "ends = stacks[s]")


def first_fit_counting_top_reads(g, pos, order):
    """_first_fit's result, and how many cached tops its scans read: the
    executions of the first line of the scan's loop body."""
    return first_fit_counting(g, pos, order, "if t > pa:")


def scan_bound(g, pos, assignment):
    """The sum over left ends of 1 + the 0-based stack of the left end's
    first span, its longest, which is all a scan per left end may read."""
    first = {}  # left end -> (right end, edge) of its longest span
    for u, v in g.edges():
        pa, pb = sorted((pos[u], pos[v]))
        first[pa] = max(first.get(pa, (pb, (u, v))), (pb, (u, v)))
    return sum(assignment[e] for _, e in first.values())


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_first_fit_matches_quadratic_reference_on_any_order(data):
    # First-fit must be right on every order, not only on the DFS orders of
    # decompositions that `_layout` gives it.
    g = data.draw(graphs())
    order = data.draw(st.permutations(range(g.n)))
    (assignment, k), reads = first_fit_counting_list_reads(
        g, {v: i for i, v in enumerate(order)}, order
    )
    assert (assignment, k) == reference_first_fit(g, order)
    # Each read of a list pops at least its stale top, and each of the k
    # stacks keeps at least one of the m ends pushed, so there are at most
    # m - k reads; a cache left stale would send every later scan past the
    # stack to its list.
    assert reads <= g.m - k
    assert check_stack_layout(g, StackLayout(tuple(order), assignment, k)).valid
    # layout_from_decomposition passes the positions as a list.
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    assert stacklayout._first_fit(g, pos, order) == (assignment, k)


@st.composite
def grouped_graphs(draw):
    """(graph, order) pairs whose left ends hold long runs of spans: cliques,
    stars, complete bipartite graphs and blow-ups, in identity or random
    order."""
    kind = draw(st.sampled_from(["clique", "star", "bipartite", "blow-up"]))
    if kind == "clique":
        g = complete(draw(st.integers(min_value=1, max_value=12)))
    elif kind == "star":
        g = star(draw(st.integers(min_value=2, max_value=20)))
    elif kind == "bipartite":
        a = draw(st.integers(min_value=1, max_value=7))
        b = draw(st.integers(min_value=1, max_value=7))
        g = Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])
    else:
        g = blow_up(draw(graphs(max_n=6)), draw(st.integers(min_value=1, max_value=3)))
    order = draw(st.one_of(st.just(list(range(g.n))), st.permutations(range(g.n))))
    return g, order


@given(grouped_graphs())
@settings(max_examples=150, deadline=None)
def test_first_fit_matches_the_reference_on_long_left_end_groups(case):
    g, order = case
    pos = {v: i for i, v in enumerate(order)}
    (assignment, k), tops_read = first_fit_counting_top_reads(g, pos, order)
    assert (assignment, k) == reference_first_fit(g, order)
    assert tops_read <= scan_bound(g, pos, assignment)
    _, lists_read = first_fit_counting_list_reads(g, pos, order)
    assert lists_read <= g.m - k


@pytest.mark.parametrize(
    "g",
    [complete(12), star(15), Graph(12, [(u, v) for u in range(5) for v in range(5, 12)]),
     blow_up(cycle(6), 3), strong_product(path(12), complete(4))],
    ids=["K12", "star-15", "K5,7", "C6-blowup3", "P12xK4"],
)
def test_first_fit_scans_the_tops_once_per_left_end(g):
    # Only a left end's first span scans, and it stops at its own stack, so
    # the tops read are at most 1 + that stack's index per left end.  A scan
    # per span also reads at least one top for each later span at a left
    # end, which on each of these layouts exceeds the bound.
    order = layout_from_decomposition(g, build_tree_decomposition(g, growth_constant(g))).order
    pos = {v: i for i, v in enumerate(order)}
    (assignment, k), tops_read = first_fit_counting_top_reads(g, pos, order)
    assert (assignment, k) == reference_first_fit(g, order)
    assert tops_read <= scan_bound(g, pos, assignment)


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


# ------------------------------------------ the checker against its old sweep

def reference_check_stack_layout(g: Graph, layout: StackLayout) -> LayoutVerdict:
    """Nesting sweep, one stack at a time, in O(m log m).  A stack's spans are
    sorted by (left, -right) and pushed onto a stack of open spans; before
    each push, open spans whose right end is at or before the new left end
    are popped.  The rest then nest, innermost on top, so the new span
    crosses one of them exactly when it crosses the top: when the top's
    right end lies strictly inside the new span.  first_crossing is the
    first such (top edge, new edge) pair on the lowest-numbered stack that
    has one."""
    if sorted(layout.order) != list(range(g.n)):
        raise StructureError("layout order is not a permutation of the vertices")
    expected = {(u, v) for u, v in g.edges()}
    if set(layout.assignment) != expected:
        raise StructureError("layout assignment does not cover exactly the edges")
    for s in layout.assignment.values():
        if not (1 <= s <= layout.k):
            raise StructureError(f"stack id {s} outside [1,{layout.k}]")
    pos = {v: i for i, v in enumerate(layout.order)}
    by_stack: Dict[int, list] = {}
    for (u, v), s in layout.assignment.items():
        pu, pv = pos[u], pos[v]
        left, right = (pu, pv) if pu < pv else (pv, pu)
        by_stack.setdefault(s, []).append((left, -right, (u, v)))
    for s in sorted(by_stack):
        spans = by_stack[s]
        spans.sort()
        open_spans = []  # (right, edge), right ends non-increasing upwards
        for left, neg_right, e in spans:
            right = -neg_right
            while open_spans and open_spans[-1][0] <= left:
                open_spans.pop()
            if open_spans and open_spans[-1][0] < right:
                return LayoutVerdict(False, (open_spans[-1][1], e))
            open_spans.append((right, e))
    return LayoutVerdict(True)


def outcome(check, g, layout):
    """The verdict of check, or the message of the StructureError it raises."""
    try:
        return check(g, layout)
    except StructureError as exc:
        return str(exc)


@st.composite
def layouts_up_to_four_stacks(draw):
    g = draw(graphs(max_n=16))
    order = draw(st.permutations(range(g.n)))
    k = draw(st.integers(min_value=1, max_value=4))
    stacks = draw(st.lists(st.integers(1, k), min_size=g.m, max_size=g.m))
    return g, StackLayout(order=tuple(order), assignment=dict(zip(g.edges(), stacks)), k=k)


@given(layouts_up_to_four_stacks())
@settings(max_examples=250, deadline=None)
def test_checker_equals_the_reference_sweep(case):
    g, layout = case
    verdict = check_stack_layout(g, layout)
    assert verdict == reference_check_stack_layout(g, layout)


def malformed_layouts():
    """(name, graph, layout) for every structural error the checker names,
    on the path 0-1-2-3 laid out in order on one stack."""
    g = path(4)
    base = {(0, 1): 1, (1, 2): 1, (2, 3): 1}
    order = (0, 1, 2, 3)
    nan = float("nan")
    return [
        ("short order", g, StackLayout((0, 1, 2), base, 1)),
        ("repeated vertex", g, StackLayout((0, 1, 1, 3), base, 1)),
        ("vertex out of range", g, StackLayout((0, 1, 2, 4), base, 1)),
        ("missing edge", g, StackLayout(order, {(0, 1): 1, (1, 2): 1}, 1)),
        ("extra key", g, StackLayout(order, {**base, (0, 3): 1}, 1)),
        ("reversed key", g, StackLayout(order, {(0, 1): 1, (2, 1): 1, (2, 3): 1}, 1)),
        ("negative id", g, StackLayout(order, {(0, 1): 1, (-1, 2): 1, (2, 3): 1}, 1)),
        ("id past n", g, StackLayout(order, {(0, 1): 1, (1, 2): 1, (2, 4): 1}, 1)),
        ("not a pair", g, StackLayout(order, {(0, 1): 1, (1, 2, 3): 1, (2, 3): 1}, 1)),
        ("stack 0", g, StackLayout(order, {**base, (1, 2): 0}, 2)),
        ("stack k + 1", g, StackLayout(order, {**base, (1, 2): 3, (2, 3): 2}, 2)),
        ("stack nan", g, StackLayout(order, {**base, (2, 3): nan}, 2)),
        ("two bad stacks", g, StackLayout(order, {(0, 1): 1, (1, 2): 5, (2, 3): 0}, 2)),
        ("k 0", g, StackLayout(order, base, 0)),
        ("k negative", g, StackLayout(order, base, -3)),
    ]


@pytest.mark.parametrize(
    "g,layout", [case[1:] for case in malformed_layouts()],
    ids=[case[0] for case in malformed_layouts()],
)
def test_checker_raises_the_reference_message(g, layout):
    expected = outcome(reference_check_stack_layout, g, layout)
    assert isinstance(expected, str)
    assert outcome(check_stack_layout, g, layout) == expected


@pytest.mark.parametrize(
    "order,assignment",
    [
        ((0, 1, 2, 3), {(0, 2): 1, (1, 3): 1}),  # crossing
        ((0, 1.0, 2, 3), {(0, 2): 1, (1, 3): 1}),  # a float vertex in the order
        ((0, 1, 2, 3), {(0, 2): 1.0, (1.0, 3): True}),  # float and bool ids
        ((3, 2, 1, 0), {(0, 2): 1, (1, 3): 2}),
    ],
)
def test_checker_verdict_on_ids_equal_to_ints(order, assignment):
    g = Graph(4, [(0, 2), (1, 3)])
    layout = StackLayout(order, assignment, 2)
    assert check_stack_layout(g, layout) == reference_check_stack_layout(g, layout)


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
    # builds 7!/2 = 2520 conflict graphs, one per order, as on a cubic graph
    # that needs 3.
    calls.clear()
    assert exact_stack_number(random_cubic(8, 0))[0] == 2
    assert 1 <= len(calls) < 50
    calls.clear()
    g = random_cubic(8, 8)
    assert (stack_number_lower_bound(g), exact_stack_number(g)[0]) == (2, 3)
    assert len(calls) == 2520


def test_exact_stack_number_climbs_from_the_lower_bound(monkeypatch):
    # Four chords with lower bound 1: the first order crosses all of them
    # (4 stacks) and the second puts each chord's ends next to each other
    # (1 stack), so it beats the best by three and must be coloured from
    # lb up, not at best - 1.
    g = Graph(8, [(0, 4), (1, 5), (2, 6), (3, 7)])
    orders = [(1, 2, 3, 4, 5, 6, 7), (4, 1, 5, 2, 6, 3, 7)]
    monkeypatch.setattr(stacklayout, "permutations", lambda vertices: iter(orders))
    assert stack_number_lower_bound(g) == 1
    k, layout = exact_stack_number(g)
    assert (k, layout.k, layout.order) == (1, 1, (0, 4, 1, 5, 2, 6, 3, 7))
    assert check_stack_layout(g, layout).valid


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
    """Every labelled graph on at most 5 vertices, seeded random graphs on 6
    and 7 vertices, then cubic graphs on 8 whose stack number 3 exceeds their
    lower bound 2, so that no order stops the exact search."""
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
    rng = random.Random(9)
    for n in (6, 6, 6, 6, 7, 7):
        density = rng.random()
        yield Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
    for seed in (8, 25, 34):
        yield random_cubic(8, seed)


def test_exact_stack_number_equals_the_full_search():
    for g in identity_graphs():
        k, layout = exact_stack_number(g)
        assert (k, layout.order, layout.assignment) == full_search_stack_number(g), g
        assert layout.k == k


def test_exact_stack_number_ignores_the_first_fit_bound(monkeypatch):
    def refuse(g, pos, order):
        raise AssertionError("the exact search ran first-fit")

    monkeypatch.setattr(stacklayout, "_first_fit", refuse)
    for g in identity_graphs():
        if g.n <= 5:
            k, layout = exact_stack_number(g)
            assert (k, layout.order, layout.assignment) == full_search_stack_number(g), g
    calls = []
    real = stacklayout._conflict_masks

    def counted(edges, pos):
        calls.append(pos)
        return real(edges, pos)

    monkeypatch.setattr(stacklayout, "_conflict_masks", counted)
    assert exact_stack_number(complete(8))[0] == 4
    assert len(calls) == 1


# ------------------------------------------ the exact search's kernels

def pairwise_conflict_masks(edges, pos):
    """The conflict graph by testing every pair of edges for interleaving."""
    masks = [0] * len(edges)
    for i, j in combinations(range(len(edges)), 2):
        if crosses(pos, edges[i], edges[j]):
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return masks


def set_colorable(masks, k):
    """Backtracking over the edges by falling degree, each taking the least
    colour that no coloured neighbour holds, up to one above those used."""
    m = len(masks)
    order = sorted(range(m), key=lambda i: -masks[i].bit_count())
    colors = [0] * m

    def place(idx, top):
        if idx == m:
            return True
        i = order[idx]
        used = {colors[j] for j in range(m) if masks[i] >> j & 1 and colors[j]}
        for c in range(1, min(k, top + 1) + 1):
            if c not in used:
                colors[i] = c
                if place(idx + 1, max(top, c)):
                    return True
                colors[i] = 0
        return False

    return colors if place(0, 0) else None


@given(graphs(max_n=10), st.data())
@settings(max_examples=200, deadline=None)
def test_conflict_masks_equal_pairwise_interleaving(g, data):
    order = data.draw(st.permutations(range(g.n)))
    edges = g.edges()
    pos = {v: i for i, v in enumerate(order)}
    assert stacklayout._conflict_masks(edges, pos) == pairwise_conflict_masks(edges, pos)


@given(graphs(max_n=9), st.data())
@settings(max_examples=150, deadline=None)
def test_colorable_equals_set_based_backtracking(g, data):
    # The conflict graph of a random order, and g itself read as a graph
    # to colour, at every k from 1 to 4.
    order = data.draw(st.permutations(range(g.n)))
    edges = g.edges()
    conflicts = pairwise_conflict_masks(edges, {v: i for i, v in enumerate(order)})
    adjacency = [sum(1 << w for w in nbrs) for nbrs in g.adj]
    for masks in (conflicts, adjacency):
        for k in range(1, 5):
            assert stacklayout._colorable(masks, k) == set_colorable(masks, k)
