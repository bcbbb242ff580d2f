import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import growthtw
import growthtw.cli as cli_mod
import growthtw.constructions as constructions_mod
import growthtw.decomposition as decomposition_mod
import growthtw.harness as harness_mod
from growthtw.cli import main
from growthtw.constructions import subdivide_uniform_polynomial, subdivide_uniform_superlinear
from growthtw.decomposition import TreeDecomposition, build_tree_decomposition
from growthtw.errors import PreconditionError
from growthtw.generators import FAMILIES, complete, grid, path, star
from growthtw.graphs import VERTEX_BUDGET, Graph, parse_edge_list, serialize_edge_list
from growthtw.separators import Separation, check_separation
from growthtw.stacklayout import StackLayout


# A decomposition of path(3), and an embedding of path(2) into the tree path(2).
TWO_BAGS = {"nodes": [{"id": 0, "bag": [0, 1]}, {"id": 1, "bag": [1, 2]}], "edges": [[0, 1]]}
EMBEDDING = {
    "tree_edges": [[0, 1]], "tree_n": 2, "root": 0, "k": 1,
    "map": [{"v": 0, "node": 0, "copy": 1}, {"v": 1, "node": 1, "copy": 1}],
}
# path(4) mapped onto the host path 0-1-2-3 rooted at 0: depth 3, so the
# scale table grows like (n/epsilon)^3.
DEEP_EMBEDDING = {
    "tree_edges": [[0, 1], [1, 2], [2, 3]], "tree_n": 4, "root": 0, "k": 1,
    "map": [{"v": v, "node": v, "copy": 1} for v in range(4)],
}


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
    assert data["trace"]["root"] == 0 and "center" not in data["trace"]


@pytest.mark.parametrize("g,c,trace", [
    (path(9), "3", {"root": 0, "p": 8, "layer_sizes": [1] * 9, "thick": [],
                    "thin": [1, 2, 3, 4, 5, 6, 7, 8], "chosen_j": 4, "c": "3"}),
    (grid(4), "1", {"root": 0, "p": 6, "layer_sizes": [1, 2, 3, 4, 3, 2, 1],
                    "thick": [1, 2, 3, 4, 5], "thin": [6], "chosen_j": 6, "c": "1"}),
], ids=["path9", "grid4"])
def test_separate_trace_object(tmp_path, capsys, g, c, trace):
    # The trace keys, their order and their values are a CLI contract.
    src = write_graph(tmp_path, g)
    assert main(["separate", src, "--c", c, "--trace"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["trace"] == trace
    assert list(data["trace"]) == list(trace)


@pytest.mark.parametrize("g", [Graph(1), path(9)])
def test_separate_trace_keeps_the_separation(tmp_path, capsys, g):
    # A single vertex is cut at p = 0, so --trace reports a trace there too.
    src = write_graph(tmp_path, g)
    assert main(["separate", src, "--c", "3"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(["separate", src, "--c", "3", "--trace"]) == 0
    traced = json.loads(capsys.readouterr().out)
    assert (traced["A"], traced["B"]) == (plain["A"], plain["B"])
    assert "trace" in traced


@pytest.mark.parametrize("g,trace", [
    (Graph(1), {"root": 0, "p": 0, "layer_sizes": [1], "thick": [], "thin": [],
                "chosen_j": 0, "c": "3"}),
    (Graph(4, [(0, 1), (2, 3)]), None),
    (Graph(13, [(i, i + 1) for i in range(11)]),
     {"root": 0, "p": 11, "layer_sizes": [1] * 12, "thick": [], "thin": list(range(1, 12)),
      "chosen_j": 6, "c": "3"}),
], ids=["single-vertex", "disconnected", "peeled-then-cut"])
def test_separate_says_why_it_wrote_no_trace(tmp_path, capsys, g, trace):
    # A trace is written exactly when a layer was cut; otherwise stderr says
    # that the separation only peeled whole components.  P12 plus an
    # isolated vertex peels the vertex, then cuts the path's own layering.
    src = write_graph(tmp_path, g)
    assert main(["separate", src, "--c", "3"]) == 0
    plain = capsys.readouterr()
    assert main(["separate", src, "--c", "3", "--trace"]) == 0
    traced = capsys.readouterr()
    data = json.loads(traced.out)
    assert data.pop("trace", None) == trace
    assert data == json.loads(plain.out)
    no_trace = "# no trace: the separation peels whole components and cuts no layer\n"
    assert (plain.err, traced.err) == ("", "" if trace else no_trace)


def test_separate_perfect_matching(tmp_path, capsys):
    # 2500 components once overflowed the recursion of the disconnected lifting.
    g = Graph(5000, [(2 * i, 2 * i + 1) for i in range(2500)])
    src = write_graph(tmp_path, g)
    assert main(["separate", src, "--c", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    sep = Separation(a=frozenset(data["A"]), b=frozenset(data["B"]))
    assert data["valid"] is True
    assert check_separation(g, None, sep, Fraction(data["alpha"])).valid


def test_separate_exits_1_and_writes_the_report_when_the_check_fails(tmp_path, monkeypatch):
    # The edge 1-2 crosses A = {0, 1} and B = {2, 3} on path(4): the report
    # is still written, and only the exit code says that the check failed.
    monkeypatch.setattr(cli_mod, "bfs_layer_separation",
                        lambda g, w, c: (Separation(frozenset({0, 1}), frozenset({2, 3})), None))
    src = write_graph(tmp_path, path(4))
    out = tmp_path / "sep.json"
    assert main(["separate", src, "--c", "3", "-o", str(out)]) == 1
    data = json.loads(out.read_text())
    assert (data["valid"], data["order"]) == (False, 0)


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
    assert capsys.readouterr().out == "invalid: vertex 4 appears in no bag\n"


def test_checktd_refuses_a_decomposition_without_nodes(tmp_path, capsys):
    td_file = tmp_path / "td.json"
    td_file.write_text(json.dumps({"nodes": [], "edges": []}))
    assert main(["checktd", write_graph(tmp_path, path(3)), "--td", str(td_file)]) == 1
    assert capsys.readouterr().out == "invalid: decomposition has no nodes\n"


def test_treedecomp_writes_no_decomposition_that_fails_its_check(tmp_path, monkeypatch):
    build = cli_mod.build_tree_decomposition

    def drop_vertex_4(g, c):
        td = build(g, c)
        return TreeDecomposition(tuple(bag - {4} for bag in td.bags), td.edges)

    monkeypatch.setattr(cli_mod, "build_tree_decomposition", drop_vertex_4)
    src = write_graph(tmp_path, grid(3))
    # stack lays out the decomposition it builds: the same fault, the same exit.
    for command in ("treedecomp", "stack"):
        out_file = tmp_path / f"{command}.json"
        code, out, err = run_quietly([command, src, "--c", "5", "-o", str(out_file)])
        assert (code, out) == (1, ""), command
        assert err == "check failed: tree decomposition: vertex 4 appears in no bag\n"
        assert not out_file.exists()


def test_stack_writes_no_layout_that_fails_its_check(tmp_path, monkeypatch):
    # K4 in the order 0, 1, 2, 3 on one stack: 0-2 and 1-3 cross.
    def one_stack(g, td=None):
        return StackLayout(tuple(range(g.n)), {e: 1 for e in g.edges()}, 1)

    monkeypatch.setattr(cli_mod, "_layout", one_stack)
    monkeypatch.setattr(cli_mod, "exact_stack_number", lambda g: (1, one_stack(g)))
    src = write_graph(tmp_path, complete(4))
    for argv in (["stack", src, "--c", "4"], ["stack-exact", src]):
        out_file = tmp_path / "layout.json"
        code, out, err = run_quietly(argv + ["-o", str(out_file)])
        assert (code, out) == (1, ""), argv
        assert err == "check failed: stack layout: edges (0, 2) and (1, 3) cross on one stack\n"
        assert not out_file.exists()


def test_tw_exact_prints_nothing_that_fails_its_check(tmp_path, monkeypatch):
    exact = cli_mod.exact_treewidth
    src = write_graph(tmp_path, grid(3))
    witness = tmp_path / "w.json"
    for fault, message in (
        (lambda w, td: (w, TreeDecomposition(tuple(bag - {4} for bag in td.bags), td.edges)),
         "tree decomposition: vertex 4 appears in no bag"),
        (lambda w, td: (w - 1, td), "tree decomposition: width 3, not the treewidth 2"),
    ):
        monkeypatch.setattr(cli_mod, "exact_treewidth", lambda g: fault(*exact(g)))
        code, out, err = run_quietly(["tw-exact", src, "--witness", str(witness)])
        assert (code, out, err) == (1, "", f"check failed: {message}\n")
        assert not witness.exists()


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
    emb_file.write_text(json.dumps(EMBEDDING))
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


def test_expand3_writes_no_expansion_that_fails_its_check(tmp_path, monkeypatch):
    g = complete(5)
    src = write_graph(tmp_path, g)
    expand = cli_mod.expand_to_degree3
    for fault, message in (
        # K5 itself, each vertex its own branch set: degree 4.
        (lambda h: (h, {v: v for v in range(h.n)}), "max degree 4 > 3"),
        # New vertex 0 left out of the map.
        (lambda h: (expand(h)[0], {v: w for v, w in expand(h)[1].items() if v}),
         "minor map must cover exactly the vertices of h"),
        # Odd new vertices relabelled: label 0's branch set {0, 2, 17, 19} is disconnected.
        (lambda h: (expand(h)[0], {v: (w + 1) % 5 if v % 2 else w
                                   for v, w in expand(h)[1].items()}),
         "branch set 0 is disconnected"),
        # K5 minus an edge expanded, under its own valid map.
        (lambda h: expand(Graph(5, [e for e in h.edges() if e != (0, 1)])),
         "the map does not contract it back to the input"),
    ):
        monkeypatch.setattr(cli_mod, "expand_to_degree3", fault)
        out_file, map_file = tmp_path / "x.el", tmp_path / "map.json"
        code, out, err = run_quietly(["expand3", src, "-o", str(out_file),
                                      "--map-out", str(map_file)])
        assert (code, out, err) == (1, "", f"check failed: degree-3 expansion: {message}\n")
        assert not out_file.exists() and not map_file.exists()


def test_verify_exits_1_on_a_built_decomposition_that_fails_its_check(monkeypatch):
    build = harness_mod.build_tree_decomposition

    def drop_vertex_0(g, c):
        td = build(g, c)
        return TreeDecomposition(tuple(bag - {0} for bag in td.bags), td.edges)

    monkeypatch.setattr(harness_mod, "build_tree_decomposition", drop_vertex_0)
    assert run_quietly(["verify", "--suite", "t1.1", "--small"]) == (
        1, "", "check failed: path-10: built decomposition invalid: vertex 0 appears in no bag\n")


def test_explore_lower_bound_exits_1_on_a_ball_past_its_bound(monkeypatch):
    monkeypatch.setattr(harness_mod, "cubic_ball_bound", lambda n, r: 1)
    assert run_quietly(["explore-lower-bound", "--sizes", "10", "--seeds", "1"]) == (
        1, "", "check failed: cubic ball bound violated at n=10, seed=1, r=1\n")


def test_each_built_decomposition_is_checked_once(tmp_path, monkeypatch):
    # check_tree_decomposition is wrapped in every module that binds it.
    checked = []
    check = decomposition_mod.check_tree_decomposition

    def counting(g, td):
        checked.append(td)
        return check(g, td)

    for name, module in list(sys.modules.items()):
        if name.startswith("growthtw") and getattr(module, "check_tree_decomposition", None) is check:
            monkeypatch.setattr(module, "check_tree_decomposition", counting)
    src = write_graph(tmp_path, grid(4))
    assert run_quietly(["stack", src, "--c", "5", "-o", str(tmp_path / "s.json")])[0] == 0
    assert len(checked) == 1
    built = []
    build = harness_mod.build_tree_decomposition

    def recording(g, c):
        built.append(build(g, c))
        return built[-1]

    monkeypatch.setattr(harness_mod, "build_tree_decomposition", recording)
    checked.clear()
    corpus = harness_mod.default_corpus(small=True)
    reports = harness_mod.run_theorem_suite(corpus, "all")
    assert sum(r.theorem == "t1.2" for r in reports) == len(corpus) == len(built)
    assert [id(td) for td in checked] == [id(td) for td in built]


def test_verify_small(capsys):
    assert main(["verify", "--suite", "t3.1", "--small", "--jsonl"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    assert all(json.loads(line)["passed"] for line in lines)


def test_verify_prints_one_line_per_report_and_the_total(capsys):
    assert main(["verify", "--suite", "t3.1", "--small"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 2
    assert all(line.startswith("[pass] t3.1 ") for line in lines[:-1])
    assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"


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
    bad.write_text("p 4 1\n0 1\n1 2\nx y\n")  # refused at line 3
    assert main(["growth", str(bad)]) == 2
    # A growth parameter below 1 -> 2, checked before separate divides by 4c.
    p4 = write_graph(tmp_path, path(4), "p4.el")
    for command in ("separate", "treedecomp", "stack"):
        for c in ("0", "-1", "1/2"):
            assert main([command, p4, "--c", c]) == 2
            assert "c must be >= 1" in capsys.readouterr().err
    # Budget error -> 3.
    big = write_graph(tmp_path, path(19), "big.el")
    assert main(["tw-exact", big]) == 3
    assert main(["stack-exact", write_graph(tmp_path, path(9), "p9.el")]) == 3
    assert main(["explore-lower-bound", "--sizes", "20", "--seeds", "1"]) == 3
    # All are refused before their lists are allocated.
    assert main(["growth", p4, "--r-max", "100000000000"]) == 3
    assert main(["generate", "path", "1000000000000"]) == 3
    assert main(["generate", "cubic", "1000000000000"]) == 3
    assert main(["generate", "complete", "100000"]) == 3  # under the vertex budget
    capsys.readouterr()


@pytest.mark.parametrize("value", ["1e10000000", "-1e10000000", "1e-10000000",
                                   "1e4301", "1E-4301", "2.5e+0_4301", "1e" + "9" * 5000])
def test_huge_decimal_exponents_are_input_errors(tmp_path, capsys, value):
    # Refused before Fraction expands 10**exponent into an exact integer.
    p4 = write_graph(tmp_path, path(4))
    assert main(["separate", p4, f"--c={value}"]) == 2
    assert main(["subdivide", p4, "--mode", "uniform", f"--epsilon={value}",
                 "--poly", "1", "0", "0"]) == 2
    assert main(["subdivide", p4, "--mode", "uniform", "--poly", value]) == 2
    assert "decimal exponent past 4300" in capsys.readouterr().err


def test_decimal_exponents_up_to_the_cap_are_valid(tmp_path, capsys):
    p4 = write_graph(tmp_path, path(4))
    assert main(["separate", p4, "--c=1e400"]) == 0
    assert main(["treedecomp", p4, "--c=1e4299"]) == 0
    capsys.readouterr()
    # Parsed, then refused by the library as c < 1.
    assert main(["treedecomp", p4, "--c=1e-4299"]) == 2
    assert "c must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1e4300", "9e4299", "-1e4300", "1e-4300",
                                   "3" + "0" * 4299])
def test_rationals_too_large_to_print_are_input_errors(tmp_path, value):
    # Printed back as alpha = 1 - 1/(4c) or in "c must be >= 1", a numerator
    # or denominator past 4300 digits would raise inside str().
    p4 = write_graph(tmp_path, path(4))
    for command in ("separate", "treedecomp"):
        code, _, err = run_quietly([command, p4, f"--c={value}"])
        assert code == 2 and "too large to print" in err, (command, err)


def test_rationals_just_below_the_print_cap_are_valid(tmp_path):
    p4 = write_graph(tmp_path, path(4))
    # 4 * 2.5e4299 would reach 10**4300, so 2e4299 is near the largest c.
    code, out, _ = run_quietly(["separate", p4, "--c=2e4299"])
    assert code == 0
    assert json.loads(out)["alpha"] == f"{8 * 10**4299 - 1}/{8 * 10**4299}"
    # A 4299-digit denominator is parsed, then refused by the library as c < 1.
    nines = "1/" + "9" * 4299
    for command in ("separate", "treedecomp"):
        code, _, err = run_quietly([command, p4, f"--c={nines}"])
        assert code == 2 and "c must be >= 1, got " + nines in err, (command, err)


@pytest.mark.parametrize("poly", [["3", "1"], ["0", "0", "3", "1"], ["6", "3"], ["9"],
                                  ["-1", "2"]])
def test_subdivide_refuses_a_linear_bound_that_never_suffices(tmp_path, capsys, poly):
    # path(4): m = 3 and n = 4, so a*r + b needs a > 6, or a + b >= 10.
    p4 = write_graph(tmp_path, path(4))
    assert main(["subdivide", p4, "--mode", "uniform", "--poly", *poly]) == 2
    assert "never reaches 2*r*m + n" in capsys.readouterr().err


@pytest.mark.parametrize("poly,subdivisions", [
    (["6", "4"], 2), (["0", "10"], 2), (["7", "0"], 8), (["0", "0", "1", "100"], 2),
])
def test_subdivide_accepts_a_linear_bound_that_suffices(tmp_path, capsys, poly, subdivisions):
    p4 = write_graph(tmp_path, path(4))
    assert main(["subdivide", p4, "--mode", "uniform", "--poly", *poly]) == 0
    assert json.loads(capsys.readouterr().out)["uniform_subdivisions"] == subdivisions


def test_subdivide_takes_negative_fractions_as_separate_tokens(tmp_path, capsys):
    p4 = write_graph(tmp_path, path(4))
    assert main(["subdivide", p4, "--mode", "uniform", "--poly", "1", "-1/2", "5"]) == 0
    record = subdivide_uniform_superlinear(path(4), lambda r: r * r - Fraction(r, 2) + 5)
    assert capsys.readouterr().out == json.dumps(record.to_json_dict(), indent=2) + "\n"
    args = cli_mod.build_parser().parse_args(
        ["subdivide", p4, "--mode", "uniform", "--poly", "1", "-1e3", "5"])
    assert args.poly == [1, -1000, 5]


def test_subdivide_refuses_a_hopeless_convex_bound_at_once(tmp_path, monkeypatch):
    # On path(4), r^2/10^6 + 3r + 1 stays below 2rm + n = 6r + 4 for every
    # r <= 10^6; the scan of all those radii used to take about 17 s.
    def scan(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(constructions_mod, "subdivide_uniform_superlinear", scan)
    p4 = write_graph(tmp_path, path(4))
    code, _, err = run_quietly(["subdivide", p4, "--mode", "uniform",
                                "--poly", "1/1000000", "3", "1"])
    assert code == 2
    assert err == "error: f(r) < 2*r*m + n for all r <= 1000000; f is not superlinear enough\n"


def test_subdivide_refuses_a_hopeless_bound_with_a_negative_coefficient_at_once(tmp_path,
                                                                                 monkeypatch):
    # On path(4), f = r^3/10^12 - r^2/10^9 + 3r + 1 is concave for r < 1000/3,
    # and f+(r) - f-(1) = r^3/10^12 + 3r + 1 - 1/10^9 stays below 6r + 4 for
    # every r <= 10^6, where f' >= 3 - 2/1000; the scan took about 14 s.
    def scan(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(constructions_mod, "subdivide_uniform_superlinear", scan)
    p4 = write_graph(tmp_path, path(4))
    code, _, err = run_quietly(["subdivide", p4, "--mode", "uniform",
                                "--poly", "1/1000000000000", "-1/1000000000", "3", "1"])
    assert code == 2
    assert err == "error: f(r) < 2*r*m + n for all r <= 1000000; f is not superlinear enough\n"


def test_subdivide_names_a_failing_radius_without_printing_f(tmp_path):
    # Each coefficient passes the print cap, but f(1) = 1/a + 1/b + 1 has a
    # denominator of about 8600 digits, which str() refuses to print.
    p4 = write_graph(tmp_path, path(4))
    poly = ["1/" + "9" * 4299, "1/" + "9" * 4298 + "7", "1"]
    code, _, err = run_quietly(["subdivide", p4, "--mode", "uniform", "--poly", *poly])
    assert code == 2
    assert err == "error: f(1) < max_degree * r + 1 = 3\n"


SCAN_BUDGET = 40


@settings(max_examples=80, deadline=None)
@given(st.fractions(0, 1, max_denominator=2000).filter(bool),
       st.lists(st.one_of(st.fractions(0, 12, max_denominator=20),
                          st.fractions(-2, 0, max_denominator=20).filter(bool)),
                min_size=2, max_size=3),
       st.sampled_from([path(4), star(5), complete(4)]))
@example(Fraction(1, 1000), [Fraction(3), Fraction(1)], path(4))  # refused at once
@example(Fraction(1, 1000), [Fraction(1), Fraction(5)], path(4))  # f(5) < 2*5 + 1
@example(Fraction(1, 1000), [Fraction(2), Fraction(0)], path(4))  # f(1) < 2*1 + 1
@example(Fraction(1, 100), [Fraction(-1), Fraction(10), Fraction(0)], path(4))  # ell = 2
@example(Fraction(1, 10**12), [Fraction(-1, 10**9), Fraction(3), Fraction(1)],
         path(4))  # refused at once, though concave on [1, 40]
def test_early_refusal_agrees_with_the_scan(fuzz_dir, leading, rest, g):
    # With the budget cut to SCAN_BUDGET radii in `constructions` alone, the
    # coefficient entry's record or message, and the CLI's exit code and
    # message, equal those of the scan alone, for bounds of degree >= 2.
    # Negative coefficients, fractions such as -1/2 among them, are separate
    # tokens.
    coeffs = [leading] + rest

    def bound(r):
        total = Fraction(0)
        for coef in coeffs:
            total = total * r + coef
        return total

    def outcome(build, f):
        try:
            return build(g, f).to_json_dict()
        except PreconditionError as exc:
            return str(exc)

    src = write_graph(fuzz_dir, g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions_mod, "SUPERLINEAR_SCAN_BUDGET", SCAN_BUDGET)
        scanned = outcome(subdivide_uniform_superlinear, bound)
        assert outcome(subdivide_uniform_polynomial, coeffs) == scanned
        expected = (2, f"error: {scanned}\n") if isinstance(scanned, str) else (0, "")
        code, _, err = run_quietly(["subdivide", src, "--mode", "uniform",
                                    "--poly", *map(str, coeffs)])
    assert (code, err) == expected


@pytest.mark.parametrize("content", [
    "{not json",
    '{"nodes": []}',
    json.dumps({"nodes": [{"id": 0, "bag": [0.5, 0, 1, 2]}], "edges": []}),
    json.dumps({"nodes": [{"id": 0, "bag": "ab"}], "edges": []}),
    json.dumps({"nodes": [{"id": 0, "bag": [True, 0, 1, 2]}], "edges": []}),
    json.dumps({"nodes": [{"id": 0.0, "bag": [0, 1, 2]}], "edges": []}),
    json.dumps({**TWO_BAGS, "edges": [[0, 1.5]]}),
    pytest.param("[" * 100_000, id="nested-past-the-recursion-limit"),
])
def test_checktd_malformed_decomposition_is_input_error(tmp_path, capsys, content):
    src = write_graph(tmp_path, path(3))
    td_file = tmp_path / "td.json"
    td_file.write_text(content)
    assert main(["checktd", src, "--td", str(td_file)]) == 2
    assert "malformed" in capsys.readouterr().err


def test_checktd_missing_decomposition_is_input_error(tmp_path, capsys):
    src = write_graph(tmp_path, path(3))
    missing = tmp_path / "missing.json"
    assert main(["checktd", src, "--td", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")


@pytest.mark.parametrize("ids", [[0, 2], [1, 2], [0, 0], [-1, 0]])
def test_checktd_node_ids_must_be_0_to_k_minus_1(tmp_path, capsys, ids):
    src = write_graph(tmp_path, path(3))
    td_file = tmp_path / "td.json"
    nodes = [{**node, "id": i} for node, i in zip(TWO_BAGS["nodes"], ids)]
    td_file.write_text(json.dumps({"nodes": nodes, "edges": [[0, 1]]}))
    assert main(["checktd", src, "--td", str(td_file)]) == 2
    assert capsys.readouterr().err == "error: decomposition node ids must be exactly 0..k-1\n"


@pytest.mark.parametrize("content", [
    "{not json",
    '{"nodes": []}',
    "[]",
    json.dumps({**EMBEDDING, "tree_n": 2.0}),
    json.dumps({**EMBEDDING, "root": 0.5}),
    json.dumps({**EMBEDDING, "map": [{"v": "0", "node": 0, "copy": 1},
                                     {"v": 1, "node": 1, "copy": True}]}),
])
def test_subdivide_malformed_embedding_is_input_error(tmp_path, capsys, content):
    src = write_graph(tmp_path, path(2))
    emb_file = tmp_path / "emb.json"
    emb_file.write_text(content)
    assert main(["subdivide", src, "--mode", "host",
                 "--embedding", str(emb_file)]) == 2
    assert "malformed" in capsys.readouterr().err


# With k = 2 copies on the tree path(2), the extra entry is a valid image:
# only the vertex it names is wrong, listed twice or not in path(2).
@pytest.mark.parametrize("extra, message", [
    ({"v": 0, "node": 0, "copy": 2}, "error: malformed map: vertex 0 listed twice\n"),
    ({"v": 7, "node": 0, "copy": 2}, "error: invalid embedding: vertex 7 is not in the graph\n"),
], ids=["listed-twice", "not-in-the-graph"])
def test_subdivide_refuses_a_map_entry_for_no_vertex_of_the_graph(tmp_path, capsys, extra,
                                                                  message):
    emb_file = tmp_path / "emb.json"
    emb_file.write_text(json.dumps({**EMBEDDING, "k": 2, "map": EMBEDDING["map"] + [extra]}))
    assert main(["subdivide", write_graph(tmp_path, path(2)), "--mode", "host",
                 "--embedding", str(emb_file)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


def test_vertex_budget_is_a_budget_error(tmp_path, capsys):
    # Both counts are refused before any adjacency list is allocated.
    src = tmp_path / "huge.el"
    src.write_text("p 1000000000 0\n")
    assert main(["separate", str(src)]) == 3
    emb_file = tmp_path / "emb.json"
    emb_file.write_text(json.dumps({**EMBEDDING, "tree_n": 2_000_000_000}))
    assert main(["subdivide", write_graph(tmp_path, path(2)), "--mode", "host",
                 "--embedding", str(emb_file)]) == 3
    assert capsys.readouterr().err.count("budget error") == 2


@pytest.mark.parametrize("epsilon", ["1e-1000", "1e-1500"])
def test_host_subdivision_past_the_budget_names_no_count(tmp_path, epsilon):
    # At 1e-1500 the projected count has more digits than str() converts.
    emb_file = tmp_path / "emb.json"
    emb_file.write_text(json.dumps(DEEP_EMBEDDING))
    code, out, err = run_quietly(["subdivide", write_graph(tmp_path, path(4)), "--mode", "host",
                                  "--embedding", str(emb_file), f"--epsilon={epsilon}"])
    assert (code, out) == (3, "")
    assert err == ("budget error: host subdivision projects more than 500000 vertices; "
                   "increase epsilon\n")


@pytest.mark.parametrize("mode, message", [("host", "--mode host requires --embedding"),
                                           ("uniform", "--mode uniform requires --poly COEFF...")])
def test_subdivide_mode_without_its_input_is_an_input_error(tmp_path, mode, message):
    code, out, err = run_quietly(["subdivide", write_graph(tmp_path, path(4)), "--mode", mode])
    assert (code, out) == (2, "")
    assert message in err


def test_unwritable_output_is_input_error(tmp_path, capsys):
    src = write_graph(tmp_path, path(4))
    target = tmp_path / "missing-dir" / "x.json"
    assert main(["treedecomp", src, "--c", "3", "-o", str(target)]) == 2
    assert "cannot write" in capsys.readouterr().err


def separate_in_a_process(tmp_path, source, data, env):
    """`growthtw separate` on the bytes `data`, from a file or from stdin, run
    as a process, so that stdin is a real stream under the interpreter's
    encoding settings: os.environ updated by `env`, where None unsets."""
    bad = tmp_path / "bad.el"
    bad.write_bytes(data)
    src = os.path.dirname(os.path.dirname(growthtw.__file__))
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env = {k: v for k, v in env.items() if v is not None}
    argv = [sys.executable, "-m", "growthtw.cli", "separate", str(bad) if source == "file" else "-"]
    with open(bad, "rb") as stdin:
        return subprocess.run(argv, stdin=stdin, capture_output=True, text=True, env=env)


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_non_utf8_edge_list_is_input_error(tmp_path, source):
    done = separate_in_a_process(tmp_path, source, b"p 2 1\n0 \xff\n", {"PYTHONIOENCODING": "utf-8:strict"})
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_non_utf8_comment_is_input_error_under_c_locale(tmp_path, source):
    # Under a C locale the interpreter's own stdin decoding lets bad bytes
    # through; stdin must be refused as a file is.
    done = separate_in_a_process(tmp_path, source, b"# caf\xe9\np 2 1\n0 1\n",
                                 {"PYTHONIOENCODING": None, "LC_ALL": "C"})
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


# Integers for the fuzzers: small ones, and counts past the vertex budget,
# which must be refused before anything is allocated.  Counts just under the
# budget are valid input that takes seconds, so they are not drawn.
INTEGERS = st.integers(-3, 12) | st.integers(min_value=VERTEX_BUDGET + 1)

# Edge-list lines built from header, comment and number tokens, some of them
# broken.
TOKENS = st.one_of(
    INTEGERS.map(str),
    st.sampled_from(["p", "#", "x", "1.5", "0x1", "-", "p2", "1e3", "\u0663", "\t"]),
)
LINES = st.lists(TOKENS, max_size=4).map(" ".join)


@st.composite
def malformed_edge_lists(draw):
    """A valid edge list, its header's vertex count perhaps redrawn, with
    lines replaced, inserted or deleted; a list of token lines; or short
    free text."""
    kind = draw(st.sampled_from(["mutated", "lines", "text"]))
    if kind == "text":
        return draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=40))
    if kind == "lines":
        return "\n".join(draw(st.lists(LINES, max_size=10)))
    n = draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    g = Graph(n, [(u, v) for u, v in pairs if u != v])
    lines = serialize_edge_list(g).splitlines()
    lines[0] = f"p {draw(st.just(n) | INTEGERS)} {g.m}"
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


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    output = out.getvalue() + err.getvalue()
    assert "Traceback" not in output, (argv, output)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(malformed_edge_lists())
@example("p 0 0\n")
@example("p 1 0\n")
@example("p 12 2\n0 1\n5 6\n")
@example("p 3000000 0\n")
def test_malformed_edge_lists_exit_cleanly(fuzz_dir, text):
    src = fuzz_dir / "g.el"
    src.write_text(text, encoding="utf-8")
    code, plain, err = run_quietly(["separate", str(src)])
    assert code in (0, 2, 3), (text, err)
    # The trace adds a key, or a line on stderr, and keeps the sides.
    traced_code, traced, err = run_quietly(["separate", str(src), "--trace"])
    assert traced_code == code, (text, err)
    if code == 0:
        plain, traced = json.loads(plain), json.loads(traced)
        assert (traced["A"], traced["B"]) == (plain["A"], plain["B"])
    for command in ("treedecomp", "stack", "growth", "expand3", "tw-exact", "stack-exact"):
        code, _, err = run_quietly([command, str(src)])
        assert code in (0, 2, 3), (command, text, err)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTEGERS | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=10,
)
FUZZ_GRAPH = path(4)
VALID_TD = build_tree_decomposition(FUZZ_GRAPH, 3).to_json_dict()
VALID_EMBEDDING = {
    "tree_edges": [[0, 1], [1, 2], [2, 3]], "tree_n": 4, "root": 1, "k": 2,
    "map": [{"v": v, "node": v, "copy": 1 + v % 2} for v in range(4)],
}


def value_slots(value):
    """(container, key) for every value nested inside `value`."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return []
    slots = []
    for key, item in items:
        slots.append((value, key))
        slots.extend(value_slots(item))
    return slots


@st.composite
def json_documents(draw, valid):
    """Any JSON value, or `valid` with one to three nested values replaced by
    arbitrary JSON or deleted."""
    if draw(st.booleans()):
        return draw(JSON_VALUES)
    doc = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        slots = value_slots(doc)
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            container[key] = draw(JSON_VALUES)
        else:
            del container[key]
    return doc


@settings(max_examples=100, deadline=None)
@given(json_documents(VALID_TD), json_documents(VALID_EMBEDDING))
def test_malformed_json_inputs_exit_cleanly(fuzz_dir, td_doc, emb_doc):
    src = write_graph(fuzz_dir, FUZZ_GRAPH)
    td_file, emb_file = fuzz_dir / "td.json", fuzz_dir / "emb.json"
    td_file.write_text(json.dumps(td_doc))
    emb_file.write_text(json.dumps(emb_doc))
    code, out, err = run_quietly(["checktd", src, "--td", str(td_file)])
    assert code in (0, 1, 2), (td_doc, err)
    assert (code == 1) == out.startswith("invalid:"), (td_doc, out)
    code, _, err = run_quietly(["subdivide", src, "--mode", "host",
                                "--embedding", str(emb_file)])
    assert code in (0, 2, 3), (emb_doc, err)


# Tokens for the numeric options: integers (0 and negatives among them),
# fractions (over 0 too), floats and their overflows, and free text.
NUMBERS = st.one_of(
    st.integers(-5, 25).map(str),
    st.tuples(st.integers(-9, 9), st.integers(-3, 9)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1e-400", "1e-1500", "-1e400", "2.5", "1_000",
                     "0x10", "", " ", "1/2/3", "3,", ",1"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)
# Cubic sizes past 20 are valid input that takes long to run.
SIZES = st.one_of(st.integers(-5, 20).map(str), NUMBERS.filter(lambda t: not t.isdigit()))


@settings(max_examples=60, deadline=None)
@given(NUMBERS, NUMBERS, st.lists(NUMBERS, min_size=1, max_size=3),
       st.lists(SIZES, max_size=2), st.lists(NUMBERS, max_size=2),
       INTEGERS, st.sampled_from(FAMILIES + ("cubic",)), INTEGERS)
# A host subdivision count past the digits str() converts.
@example("3", "1e-1500", ["1"], [], [], 1, "path", 1)
def test_numeric_options_exit_cleanly(fuzz_dir, c, epsilon, poly, sizes, seeds,
                                      r_max, family, size):
    src = write_graph(fuzz_dir, path(4))
    for command in ("separate", "treedecomp", "stack"):
        code, _, err = run_quietly([command, src, f"--c={c}"])
        assert code in (0, 1, 2, 3), (command, c, err)
    code, _, err = run_quietly(["growth", src, f"--r-max={r_max}"])
    assert code in (0, 1, 2, 3), (r_max, err)
    code, _, err = run_quietly(["generate", family, str(size)])
    assert code in (0, 1, 2, 3), (family, size, err)
    # On a graph with an edge, a polynomial with a tiny positive leading
    # coefficient (1e-400 r^2) is valid input whose superlinearity scan runs
    # for seconds; on one vertex the scan ends at r = 1.
    one_vertex = write_graph(fuzz_dir, Graph(1), "k1.el")
    code, _, err = run_quietly(["subdivide", one_vertex, "--mode", "uniform",
                                f"--epsilon={epsilon}", "--poly", *poly])
    assert code in (0, 1, 2, 3), (epsilon, poly, err)
    deep = fuzz_dir / "deep.json"
    deep.write_text(json.dumps(DEEP_EMBEDDING))
    code, _, err = run_quietly(["subdivide", src, "--mode", "host", "--embedding", str(deep),
                                f"--epsilon={epsilon}"])
    assert code in (0, 2, 3), (epsilon, err)
    code, _, err = run_quietly(["explore-lower-bound", f"--sizes={','.join(sizes)}",
                                f"--seeds={','.join(seeds)}"])
    assert code in (0, 1, 2, 3), (sizes, seeds, err)
