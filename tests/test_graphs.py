import pytest
from hypothesis import given, settings, strategies as st

from growthtw.errors import CapacityError, ModelError, ParseError, RangeError, StructureError
from growthtw.generators import cycle, path
from growthtw.graphs import (
    EDGE_BUDGET,
    VERTEX_BUDGET,
    Graph,
    _within_budget,
    ball,
    bfs_distances,
    components,
    components_within,
    is_tree,
    minor,
    moore_gain,
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


def test_has_edge_refuses_an_end_out_of_range():
    # adj[-1] is the last vertex's list, so an unchecked -1 would find the
    # edge (2, 1) as (-1, 1).
    g = Graph(3, [(1, 2)])
    for u, v in [(-1, 1), (1, -1), (5, 0), (0, 5), (3, 3)]:
        with pytest.raises(RangeError, match="out of range for n=3$"):
            g.has_edge(u, v)
    assert g.has_edge(1, 2) and g.has_edge(2, 1) and not g.has_edge(0, 2)


def test_construction_rejects_bad_edges():
    # An end out of range is a RangeError, a loop included.
    for u, v in [(0, 3), (3, 0), (-1, 1), (1, -1), (3, 3), (-1, -1)]:
        with pytest.raises(RangeError, match=rf"^edge \({u},{v}\) out of range for n=3$"):
            Graph(3, [(u, v)])
    for u in range(3):
        with pytest.raises(StructureError, match=f"^self-loop at vertex {u}$"):
            Graph(3, [(u, u)])
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
    with pytest.raises(RangeError, match=r"^line 2: edge \(0,5\) out of range for n=2$"):
        parse_edge_list("p 2 1\n0 5\n")
    with pytest.raises(StructureError, match="^line 3: self-loop at vertex 1$"):
        parse_edge_list("p 3 2\n0 1\n1 1\n")
    with pytest.raises(CapacityError):
        parse_edge_list("p 1000000000 0\n")  # refused before n lists are allocated
    with pytest.raises(CapacityError):
        parse_edge_list(f"p 3 {EDGE_BUDGET + 1}\n")  # refused before any edge is read
    with pytest.raises(ParseError):
        parse_edge_list(f"p 3 {EDGE_BUDGET}\n")  # within the budget, but the edges are missing
    err = None
    try:
        parse_edge_list("p 2 1\nx y\n")
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 2
    with pytest.raises(ParseError, match="^line 1: non-integer header field in 'p x 1'$"):
        parse_edge_list("p x 1\n")
    with pytest.raises(ParseError, match="^line 2: expected edge '<u> <v>', got '0 1 2'$"):
        parse_edge_list("p 3 1\n0 1 2\n")
    with pytest.raises(ParseError, match="^line 3: expected edge '<u> <v>', got '2'$"):
        parse_edge_list("p 3 1\n0 1\n2\n")


@st.composite
def edge_list_cases(draw):
    """(n, pairs, lines, header index, line end): the text of Graph(n,
    pairs), one line per pair, some pairs repeated or reversed, among
    comments and blank lines, before the header too."""
    n = draw(st.integers(min_value=0, max_value=10))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = draw(st.lists(st.sampled_from(possible), max_size=25)) if possible else []
    pairs = [(v, u) if draw(st.booleans()) else (u, v) for u, v in pairs]
    lines = [f"p {n} {len({(min(e), max(e)) for e in pairs})}"]
    lines.extend(f"{u} {v}" for u, v in pairs)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        filler = draw(st.sampled_from(["", "   ", "# comment", "\t# 0 0"]))
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), filler)
    header = next(i for i, line in enumerate(lines) if line.startswith("p "))
    return n, pairs, lines, header, draw(st.sampled_from(["\n", "\r\n"]))


@given(edge_list_cases())
def test_parse_equals_graph_on_the_same_pairs(case):
    n, pairs, lines, _, end = case
    parsed = parse_edge_list(end.join(lines) + end)
    built = Graph(n, pairs)
    assert parsed == built and hash(parsed) == hash(built)
    assert (parsed.n, parsed.m, parsed.adj) == (built.n, built.m, built.adj)


@given(edge_list_cases(), st.data())
def test_parse_refuses_a_bad_edge_as_graph_does(case, data):
    # The parser raises what Graph raises for the one bad pair, with the
    # pair's line number in front of the same message.
    n, pairs, lines, header, end = case
    outside = st.integers(min_value=-3, max_value=-1) | st.integers(min_value=n, max_value=n + 3)
    anywhere = st.integers(min_value=-1, max_value=n + 1)
    bad = data.draw(
        anywhere.map(lambda u: (u, u))
        | st.tuples(outside, anywhere)
        | st.tuples(anywhere, outside)
    )
    with pytest.raises((RangeError, StructureError)) as want:
        Graph(n, [bad])
    at = data.draw(st.integers(min_value=header + 1, max_value=len(lines)))
    lines.insert(at, f"{bad[0]} {bad[1]}")
    with pytest.raises((RangeError, StructureError)) as got:
        parse_edge_list(end.join(lines))
    assert type(got.value) is type(want.value)
    assert str(got.value) == f"line {at + 1}: {want.value}"


def test_parse_stops_at_the_first_edge_past_the_header():
    # The third line is refused before the malformed fourth is read.
    with pytest.raises(ParseError, match="header declares 1 edges but more") as exc:
        parse_edge_list("p 4 1\n0 1\n1 2\nx y\n")
    assert exc.value.line == 3
    # Repeated edges count once, and too few still name the count.
    assert parse_edge_list("p 4 1\n0 1\n1 0\n0 1\n").m == 1
    with pytest.raises(ParseError, match="header declares 3 edges but 2 distinct edges given"):
        parse_edge_list("p 4 3\n0 1\n1 2\n")


def test_parse_refuses_a_header_past_the_vertex_budget_before_any_edge():
    # The edge lines after the header, malformed or not, are never read.
    too_many = VERTEX_BUDGET + 1
    for text in (f"p {too_many} 1\nx y\n", f"p {too_many} 2\n0 1\nx y\n"):
        with pytest.raises(CapacityError,
                           match=f"graph would have {too_many} vertices"):
            parse_edge_list(text)
    with pytest.raises(ParseError):
        parse_edge_list(f"p {VERTEX_BUDGET} 1\nx y\n")


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


def test_connectivity_predicates():
    g = Graph(4, [(0, 1), (2, 3)])
    assert len(components_within(g, range(4))) == 2
    assert components_within(g, frozenset({2, 3})) == [frozenset({2, 3})]
    assert len(components_within(Graph(1), {0})) == 1
    assert is_tree(Graph(3, [(0, 1), (1, 2)]))
    assert not is_tree(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert not is_tree(Graph(4, [(0, 1), (2, 3)]))


def test_ball_refuses_a_negative_radius():
    assert ball(path(3), 0, 0) == frozenset({0})
    with pytest.raises(RangeError, match="^radius must be nonnegative, got -1$"):
        ball(path(3), 0, -1)


def test_minor_contracts_each_set_to_its_index():
    # Sets keep their order, not their keys' order; an edge inside a set
    # vanishes, parallel edges merge and vertex 2, in no set, is deleted.
    g = path(5)
    assert minor(g, {"b": {3, 4}, "a": {0, 1}}) == Graph(2)
    assert minor(g, {"b": {2, 3, 4}, "a": {0, 1}}) == Graph(2, [(0, 1)])
    assert minor(cycle(4), {0: {0, 1}, 1: {2}, 2: {3}}) == cycle(3)
    assert minor(cycle(4), {0: {0, 1}, 1: {2, 3}}) == Graph(2, [(0, 1)])
    assert minor(cycle(4), {}) == Graph(0)
    # A set given as a list may repeat an id, which counts once.
    assert minor(path(3), {"a": [0, 0], "b": [1]}) == path(2)


def test_minor_names_the_first_bad_set():
    g = path(4)
    with pytest.raises(ModelError, match="^branch set x is empty$"):
        minor(g, {"w": {0}, "x": set(), "y": {1, 3}})
    with pytest.raises(ModelError, match="^branch set b overlaps another$"):
        minor(g, {"a": {0, 1}, "b": {1, 2}})
    with pytest.raises(ModelError, match="^branch set a is disconnected$"):
        minor(g, {"a": {0, 2}, "b": set()})
    with pytest.raises(RangeError, match="^branch set b has out-of-range vertex 4$"):
        minor(g, {"a": {0}, "b": {4}})
    with pytest.raises(RangeError, match="^branch set a has out-of-range vertex -1$"):
        minor(g, {"a": {-1}})


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
    # X is read as a set: a repeated id counts once.
    assert components_within(g, [2, 3, 3]) == [frozenset({2, 3})]


@pytest.mark.parametrize("X,bad", [({-1, 0}, -1), ({0, 7}, 7)])
def test_set_helpers_refuse_an_out_of_range_id(X, bad):
    # A negative id would read another vertex's adjacency list from the end,
    # and one past n would raise a bare IndexError.
    with pytest.raises(RangeError, match=f"vertex {bad} out of range for n=3"):
        components_within(path(3), X)


def test_moore_gain_values():
    # A path gains 2 vertices a level: from 3 vertices, 500 takes 249 levels.
    assert moore_gain(2, 249, 500) == 249
    assert 3 + 2 * moore_gain(2, 248, 500) < 500 <= 3 + 2 * moore_gain(2, 249, 500)
    # Degree 3 from 4 vertices, 3 of them on the level: 4 + 3*2 = 10 by one
    # step, 10 + 3*4 = 22 by two.
    assert 4 + 3 * moore_gain(3, 0, 10) < 10 == 4 + 3 * moore_gain(3, 1, 10)
    assert 4 + 3 * moore_gain(3, 1, 11) < 11 <= 4 + 3 * moore_gain(3, 2, 11)
    assert moore_gain(3, 2, 11) == 6
    # A ball that already holds the target needs no step.
    assert 6 + 5 * moore_gain(5, 0, 6) >= 6
    # A matching never grows, and neither does a ball with an empty level.
    assert all(moore_gain(1, j, 3) == 0 for j in range(50))
    assert moore_gain(0, 10, 3) == 0
    assert all(5 + 0 * moore_gain(4, j, 6) < 6 for j in range(50))
    # The sum stops at the first partial sum that reaches the cap:
    # 2, 6, 14, 30, ... for delta = 3.
    assert moore_gain(3, 100, 10) == 14
    assert moore_gain(3, 100, 6) == 6
    assert moore_gain(3, 3, 10**6) == 14
    assert moore_gain(7, 10**9, 10**6) == 6 * (6**8 - 1) // 5


@given(small_graphs(max_n=10))
def test_moore_gain_never_undercounts_a_ball(g):
    # From any ball B_r(v), r >= 1, the bound after j steps reaches the
    # ball B_{r+j}(v), whatever the cap at or above its size.
    delta = g.max_degree()
    for v in range(g.n):
        dist = bfs_distances(g, v)
        sizes = [sum(d <= r for d in dist.values()) for r in range(max(dist.values()) + 1)]
        for r in range(1, len(sizes)):
            level = sizes[r] - sizes[r - 1]
            for j, target in enumerate(sizes[r:]):
                for cap in (target, target + 1, g.n):
                    assert sizes[r] + level * moore_gain(delta, j, cap) >= target


# ------------------------------------------- the tuple-keyed reference I/O
#
# Copies of the edge-list reader, the constructor and the writer as they
# stood when edges were (min, max) tuples and each adjacency list was
# sorted on its own.  The integer-keyed code must agree with them on every
# text and every list of pairs: the same graph and hash, or the same
# exception with the same message and line.


def _reference_edge(u, v, n):
    if 0 <= u < v < n:
        return (u, v)
    if 0 <= v < u < n:
        return (v, u)
    if not (0 <= u < n and 0 <= v < n):
        raise RangeError(f"edge ({u},{v}) out of range for n={n}")
    raise StructureError(f"self-loop at vertex {u}")


def _reference_store(n, edges):
    neigh = [[] for _ in range(n)]
    for u, v in edges:
        neigh[u].append(v)
        neigh[v].append(u)
    for a in neigh:
        a.sort()
    adj = tuple(map(tuple, neigh))
    return n, len(edges), adj, hash((n, adj))


def _reference_graph(n, pairs):
    if n < 0:
        raise RangeError(f"vertex count must be nonnegative, got {n}")
    _within_budget(n)
    return _reference_store(n, {_reference_edge(u, v, n) for u, v in pairs})


def _reference_parse(text):
    n = None
    declared_m = None
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "p" or len(parts) != 3:
                raise ParseError(f"expected header 'p <n> <m>', got {raw!r}", lineno)
            try:
                n, declared_m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"non-integer header field in {raw!r}", lineno) from None
            if n < 0 or declared_m < 0:
                raise ParseError("negative count in header", lineno)
            _within_budget(n, declared_m)
            continue
        if len(parts) != 2:
            raise ParseError(f"expected edge '<u> <v>', got {raw!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {raw!r}", lineno) from None
        try:
            edges.add(_reference_edge(u, v, n))
        except (RangeError, StructureError) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        if len(edges) > declared_m:
            raise ParseError(
                f"header declares {declared_m} edges but more distinct edges given", lineno
            )
    if n is None:
        raise ParseError("missing header 'p <n> <m>'")
    if len(edges) != declared_m:
        raise ParseError(
            f"header declares {declared_m} edges but {len(edges)} distinct edges given"
        )
    return _reference_store(n, edges)


def _reference_serialize(n, m, adj):
    lines = [f"p {n} {m}"]
    lines.extend(f"{u} {v}" for u in range(n) for v in adj[u] if u < v)
    return "\n".join(lines) + "\n"


def _outcome(f, *args):
    """(n, m, adj, hash) of the graph that f returns, or the exception's
    type, message and line."""
    try:
        g = f(*args)
    except (ParseError, RangeError, StructureError, CapacityError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return g if isinstance(g, tuple) else (g.n, g.m, g.adj, hash(g))


# Every line boundary of str.splitlines, and whitespace that only splits
# tokens: \x1f and \xa0 are whitespace to str.split but end no line.
LINE_ENDS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
GAPS = [" ", "  ", "\t", "\x1f", "\xa0", " \x1f"]
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


@st.composite
def integer_tokens(draw, value):
    """`value` written as any token that int() reads back as `value`."""
    digits = str(abs(value))
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    forms = [digits, "0" * draw(st.integers(1, 2)) + digits, digits.translate(ARABIC_INDIC)]
    if len(digits) > 1:
        forms.append(digits[0] + "_" + digits[1:])
    if value == 0:
        sign = draw(st.sampled_from(["", "+", "-"]))
    return sign + draw(st.sampled_from(forms))


@st.composite
def edge_list_texts(draw):
    """Texts near the edge-list format: a header, edge lines with
    well-formed, reversed, repeated and bad pairs written in any form that
    int() reads, comments of one and two tokens, blank and malformed lines,
    all joined by any mix of line boundaries."""
    n = draw(st.integers(min_value=0, max_value=6))
    ids = st.integers(min_value=-2, max_value=n + 2)
    lines, pairs = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(["edge"] * 6 + ["repeat", "comment", "blank", "junk"]))
        if kind == "repeat" and pairs:
            u, v = draw(st.sampled_from(pairs))
            lines.append(f"{v} {u}" if draw(st.booleans()) else f"{u} {v}")
        elif kind in ("edge", "repeat"):
            u, v = draw(ids), draw(ids)
            if draw(st.integers(0, 3)):
                u, v = u % max(n, 1), v % max(n, 1)
            pairs.append((u, v))
            lines.append(draw(integer_tokens(u)) + draw(st.sampled_from(GAPS))
                         + draw(integer_tokens(v)))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["#1 2", "# 0", "#", "#0 1 2", " # p 3 1"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x1f", "\xa0"])))
        else:
            lines.append(draw(st.sampled_from(
                ["x y", "1 x", "1.5 2", "1", "0 1 2", "p 3 1", "\u0663 1e3", "0x1 1"])))
    valid = {(min(e), max(e)) for e in pairs if 0 <= min(e) < max(e) < n}
    m = len(valid) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    header = draw(st.sampled_from(
        [f"p {n} {m}", f" p\t{n} {m} ", f"p {n}", f"p x {m}", f"p {n} -1", "q 1 0"]
        if draw(st.integers(0, 4)) == 0 else [f"p {n} {m}"]))
    before = draw(st.sampled_from([[], ["# 0"], ["#1 2"], ["0 1"], [""]]))
    lines = before + [header] + lines
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.integers(0, 3)) else text[:-len(ends[-1])]


@settings(max_examples=300, deadline=None)
@given(edge_list_texts())
def test_parse_equals_the_tuple_keyed_reference(text):
    assert _outcome(parse_edge_list, text) == _outcome(_reference_parse, text)


@st.composite
def pair_lists(draw):
    """(n, pairs): pairs of distinct ids in range, in either orientation and
    repeated, with now and then a pair drawn from a wider range inserted."""
    n = draw(st.integers(min_value=0, max_value=7))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    pairs = draw(st.lists(st.sampled_from(possible), max_size=20)) if possible else []
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        bad = (draw(st.integers(-2, n + 1)), draw(st.integers(-2, n + 1)))
        pairs.insert(draw(st.integers(min_value=0, max_value=len(pairs))), bad)
    return n, pairs


@settings(max_examples=200, deadline=None)
@given(pair_lists())
def test_graph_equals_the_tuple_keyed_reference(case):
    n, pairs = case
    assert _outcome(Graph, n, pairs) == _outcome(_reference_graph, n, pairs)


@given(small_graphs(max_n=12))
def test_serialize_equals_the_tuple_keyed_reference(g):
    assert serialize_edge_list(g) == _reference_serialize(g.n, g.m, g.adj)


def _reference_edges(g):
    """Graph.edges as it stood when it was a generator over vertex ids."""
    for u in range(g.n):
        for v in g.adj[u]:
            if u < v:
                yield (u, v)


@given(small_graphs(max_n=12))
def test_edges_equal_the_generator_reference(g):
    edges = g.edges()
    assert isinstance(edges, list)
    assert edges == list(_reference_edges(g))
    assert edges == sorted(edges) and len(edges) == g.m
