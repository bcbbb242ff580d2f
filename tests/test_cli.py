import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from growthtw.cli import main
from growthtw.generators import complete, grid, path
from growthtw.graphs import Graph, parse_edge_list, serialize_edge_list
from growthtw.separators import Separation, check_separation


def write_graph(tmp_path, g, name="g.el"):
    target = tmp_path / name
    target.write_text(serialize_edge_list(g))
    return str(target)


def test_generate_and_parse(tmp_path, capsys):
    out = tmp_path / "c9.el"
    assert main(["generate", "cycle", "9", "-o", str(out)]) == 0
    assert parse_edge_list(out.read_text()).m == 9


def test_generate_cubic_seeded(capsys):
    assert main(["generate", "cubic", "10", "--seed", "4"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "cubic", "10", "--seed", "4"]) == 0
    assert capsys.readouterr().out == first


def test_growth_csv(tmp_path, capsys):
    src = write_graph(tmp_path, path(5))
    assert main(["growth", src, "--r-max", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[:3] == ["1,3", "2,5", "3,5"]
    assert out[-1].startswith("# c = 3 at r = 1")


def test_separate_json(tmp_path, capsys):
    src = write_graph(tmp_path, path(9))
    assert main(["separate", src, "--c", "3", "--trace"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["valid"] is True
    assert data["order"] < 6
    assert "trace" in data and data["trace"]["c"] == "3"


def test_separate_perfect_matching(tmp_path, capsys):
    # 2500 components once overflowed the recursion of the disconnected lifting.
    g = Graph(5000, [(2 * i, 2 * i + 1) for i in range(2500)])
    src = write_graph(tmp_path, g)
    assert main(["separate", src, "--c", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    sep = Separation(a=frozenset(data["A"]), b=frozenset(data["B"]), host_size=g.n)
    assert data["valid"] is True
    assert check_separation(g, None, sep, Fraction(data["alpha"])).valid


def test_treedecomp_checktd_round_trip(tmp_path, capsys):
    src = write_graph(tmp_path, grid(3))
    td_file = tmp_path / "td.json"
    assert main(["treedecomp", src, "--c", "5", "-o", str(td_file)]) == 0
    assert main(["checktd", src, "--td", str(td_file)]) == 0
    out = capsys.readouterr().out
    assert "valid" in out

    # Corrupt a bag: drop a vertex from every bag containing it.
    data = json.loads(td_file.read_text())
    for node in data["nodes"]:
        node["bag"] = [v for v in node["bag"] if v != 4]
    td_file.write_text(json.dumps(data))
    assert main(["checktd", src, "--td", str(td_file)]) == 1


def test_tw_exact_with_witness(tmp_path, capsys):
    src = write_graph(tmp_path, complete(5))
    witness = tmp_path / "w.json"
    assert main(["tw-exact", src, "--witness", str(witness)]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert json.loads(witness.read_text())["width"] == 4


def test_stack_commands(tmp_path, capsys):
    src = write_graph(tmp_path, complete(4))
    assert main(["stack-exact", src]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["k"] == 2
    assert main(["stack", src, "--c", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert sorted(data["order"]) == [0, 1, 2, 3]


def test_subdivide_uniform(tmp_path, capsys):
    src = write_graph(tmp_path, complete(4))
    result = tmp_path / "sub.el"
    code = main([
        "subdivide", src, "--mode", "uniform", "--poly", "1", "3", "1",
        "--result-out", str(result),
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["uniform_subdivisions"] == 20
    assert parse_edge_list(result.read_text()).n == 124


def test_subdivide_host(tmp_path, capsys):
    g = path(2)
    src = write_graph(tmp_path, g)
    emb_file = tmp_path / "emb.json"
    emb_file.write_text(json.dumps({
        "tree_edges": [[0, 1]], "tree_n": 2, "root": 0, "k": 1,
        "map": [{"v": 0, "node": 0, "copy": 1}, {"v": 1, "node": 1, "copy": 1}],
    }))
    assert main(["subdivide", src, "--mode", "host",
                 "--embedding", str(emb_file), "--epsilon", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result_n"] == 5
    assert data["scale_table"] == [2, 2, 1]


def test_expand3(tmp_path, capsys):
    src = write_graph(tmp_path, complete(5))
    map_file = tmp_path / "map.json"
    assert main(["expand3", src, "--map-out", str(map_file)]) == 0
    out = capsys.readouterr().out
    expanded = parse_edge_list(out)
    assert expanded.max_degree() <= 3
    mapping = json.loads(map_file.read_text())
    assert len(mapping) == expanded.n


def test_verify_small(capsys):
    assert main(["verify", "--suite", "t3.1", "--small", "--jsonl"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    assert all(json.loads(line)["passed"] for line in lines)


def test_explore_lower_bound(capsys):
    assert main(["explore-lower-bound", "--sizes", "10", "--seeds", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,seed,c,treewidth"
    assert out[1].startswith("10,1,")


def test_exit_codes(tmp_path, capsys):
    # Usage error -> 2.
    assert main(["growth", str(tmp_path / "missing.el")]) == 2
    assert main(["nonsense"]) == 2
    bad = tmp_path / "bad.el"
    bad.write_text("p 2 9\n0 1\n")
    assert main(["growth", str(bad)]) == 2
    # Budget error -> 3.
    big = write_graph(tmp_path, path(19), "big.el")
    assert main(["tw-exact", big]) == 3
    assert main(["explore-lower-bound", "--sizes", "20", "--seeds", "1"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("content", ["{not json", '{"nodes": []}'])
def test_checktd_malformed_decomposition_is_input_error(tmp_path, capsys, content):
    src = write_graph(tmp_path, path(3))
    td_file = tmp_path / "td.json"
    td_file.write_text(content)
    assert main(["checktd", src, "--td", str(td_file)]) == 2
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["{not json", '{"nodes": []}'])
def test_subdivide_malformed_embedding_is_input_error(tmp_path, capsys, content):
    src = write_graph(tmp_path, path(2))
    emb_file = tmp_path / "emb.json"
    emb_file.write_text(content)
    assert main(["subdivide", src, "--mode", "host",
                 "--embedding", str(emb_file)]) == 2
    assert "malformed" in capsys.readouterr().err


def test_unwritable_output_is_input_error(tmp_path, capsys):
    src = write_graph(tmp_path, path(4))
    target = tmp_path / "missing-dir" / "x.json"
    assert main(["treedecomp", src, "--c", "3", "-o", str(target)]) == 2
    assert "cannot write" in capsys.readouterr().err


# Edge-list lines built from header, comment and number tokens, some of them
# broken.  Integers stay small: the header's n sizes the graph before any edge
# is read.
TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["p", "#", "x", "1.5", "0x1", "-", "p2", "1e3", "\u0663", "\t"]),
)
LINES = st.lists(TOKENS, max_size=4).map(" ".join)


@st.composite
def malformed_edge_lists(draw):
    """A valid edge list with lines replaced, inserted or deleted, a list of
    token lines, or short free text."""
    kind = draw(st.sampled_from(["mutated", "lines", "text"]))
    if kind == "text":
        return draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=40))
    if kind == "lines":
        return "\n".join(draw(st.lists(LINES, max_size=10)))
    n = draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    lines = serialize_edge_list(Graph(n, [(u, v) for u, v in pairs if u != v])).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["replace", "insert", "delete"]))
        if action == "insert" or at == len(lines):
            lines.insert(at, draw(LINES))
        elif action == "replace":
            lines[at] = draw(LINES)
        else:
            del lines[at]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(malformed_edge_lists())
def test_malformed_edge_lists_exit_cleanly(fuzz_dir, text):
    src = fuzz_dir / "g.el"
    src.write_text(text, encoding="utf-8")
    for command in ("separate", "treedecomp", "stack"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(src)])
        assert code in (0, 2), (command, text, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()
