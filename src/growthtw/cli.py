"""Command-line front end.  Exit codes: 0 success / all checks pass,
1 check failure, 2 usage or input error, 3 budget exceeded."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import harness
from .constructions import (
    HostEmbedding,
    expand_to_degree3,
    subdivide_in_host,
    subdivide_uniform_superlinear,
)
from .decomposition import (
    TreeDecomposition,
    build_tree_decomposition,
    check_tree_decomposition,
    exact_treewidth,
)
from .errors import CapacityError, GrowthTWError
from .generators import FAMILIES, generate, random_cubic
from .graphs import parse_edge_list, serialize_edge_list
from .growth import growth_constant, growth_profile
from .separators import LayerSplitTrace, check_separation, linear_growth_separator
from .stacklayout import exact_stack_number, layout_from_decomposition


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected an integer or p/q, got {text!r}")


def _int_list(text: str):
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthtw",
        description="Growth functions, balanced separators, tree-decompositions, "
        "stack layouts, and growth-certified subdivisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a named graph family as an edge list")
    p.add_argument("family", choices=FAMILIES + ("cubic",))
    p.add_argument("size", type=int)
    p.add_argument("--seed", type=int, default=0, help="seed for the cubic family")
    p.add_argument("-o", "--out", default="-")

    p = sub.add_parser("growth", help="growth function as CSV rows r,f plus the constant")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--r-max", type=int, default=None)
    p.add_argument("-o", "--out", default="-")

    p = sub.add_parser("separate", help="balanced separation report as JSON")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--c", type=_fraction, default=None,
                   help="growth parameter; defaults to the measured growth constant")
    p.add_argument("--trace", action="store_true", help="include the layer-split trace")
    p.add_argument("-o", "--out", default="-")

    p = sub.add_parser("treedecomp", help="build a tree-decomposition as JSON")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--c", type=_fraction, default=None)
    p.add_argument("-o", "--out", default="-")

    p = sub.add_parser("checktd", help="validate a tree-decomposition JSON file")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--td", required=True)

    p = sub.add_parser("tw-exact", help="exact treewidth (small graphs)")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--witness", default=None, help="write the witness decomposition JSON here")

    p = sub.add_parser("stack", help="heuristic stack layout as JSON")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--c", type=_fraction, default=None)
    p.add_argument("-o", "--out", default="-")

    p = sub.add_parser("stack-exact", help="exact stack number (small graphs)")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("-o", "--out", default="-")

    p = sub.add_parser("subdivide", help="growth-certified subdivision")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--mode", choices=("host", "uniform"), required=True)
    p.add_argument("--embedding", help="HostEmbedding JSON file (host mode)")
    p.add_argument("--epsilon", type=_fraction, default=Fraction(1))
    p.add_argument("--poly", type=_fraction, nargs="+", metavar="COEFF",
                   help="bound polynomial, highest degree first (uniform mode)")
    p.add_argument("--result-out", default=None, help="write the result edge list here")
    p.add_argument("-o", "--out", default="-")

    p = sub.add_parser("expand3", help="split high-degree vertices to reach max degree 3")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--map-out", default=None, help="write the new->original vertex map JSON here")
    p.add_argument("-o", "--out", default="-")

    p = sub.add_parser("verify", help="run the theorem-replication suites")
    p.add_argument("--suite", choices=harness.SUITES, default="all")
    p.add_argument("--small", action="store_true", help="use the trimmed corpus")
    p.add_argument("--jsonl", action="store_true", help="emit JSON lines instead of text")

    p = sub.add_parser("explore-lower-bound",
                       help="growth constant vs exact treewidth for random cubic graphs")
    p.add_argument("--sizes", type=_int_list, required=True)
    p.add_argument("--seeds", type=_int_list, default=[1])
    return parser


def _read_graph(path: str):
    if path == "-":
        return parse_edge_list(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_edge_list(handle.read())
    except OSError as exc:
        raise GrowthTWError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str, loader):
    """Load a JSON file through `loader`; unreadable or malformed input is
    an input error (exit 2), never a failed check."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return loader(json.load(handle))
    except OSError as exc:
        raise GrowthTWError(f"cannot read {path}: {exc}") from exc
    except GrowthTWError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise GrowthTWError(f"malformed {path}: {exc!r}") from exc


def _write(path: str, text: str):
    if path == "-" or path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise GrowthTWError(f"cannot write {path}: {exc}") from exc


def _effective_c(args, g) -> Fraction:
    if args.c is not None:
        return args.c
    c = growth_constant(g)
    print(f"# using measured growth constant c = {c}", file=sys.stderr)
    return c


def _trace_dict(trace: LayerSplitTrace) -> dict:
    return {
        "center": trace.center,
        "p": trace.p,
        "layer_sizes": list(trace.layer_sizes),
        "thick": list(trace.thick),
        "thin": list(trace.thin),
        "chosen_j": trace.chosen_j,
        "c": str(trace.c),
    }


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except CapacityError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except GrowthTWError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "generate":
        if args.family == "cubic":
            g = random_cubic(args.size, args.seed)
        else:
            g = generate(args.family, args.size)
        _write(args.out, serialize_edge_list(g))
        return 0

    if args.command == "growth":
        g = _read_graph(args.input)
        r_max = args.r_max if args.r_max is not None else max(1, g.n)
        profile = growth_profile(g, r_max)
        lines = [f"{r},{f}" for r, f in enumerate(profile.values, start=1)]
        lines.append(f"# c = {profile.growth_constant} at r = {profile.argmax_radius}")
        _write(args.out, "\n".join(lines) + "\n")
        return 0

    if args.command == "separate":
        g = _read_graph(args.input)
        c = _effective_c(args, g)
        from .separators import bfs_layer_separation
        from .graphs import is_connected

        alpha = max(Fraction(2, 3), 1 - Fraction(1, 4 * c))
        if args.trace and is_connected(g):
            sep, trace = bfs_layer_separation(g, None, c)
        else:
            sep, trace = linear_growth_separator(g, None, c), None
        report = check_separation(g, None, sep, alpha)
        payload = {
            "valid": report.valid,
            "order": report.order,
            "alpha": str(alpha),
            "alpha_achieved": str(report.alpha_achieved),
            "exclusive_ratio": str(report.exclusive_ratio),
            "sides": list(report.sides),
            "A": sorted(sep.a),
            "B": sorted(sep.b),
        }
        if trace is not None:
            payload["trace"] = _trace_dict(trace)
        _write(args.out, json.dumps(payload, indent=2) + "\n")
        return 0 if report.valid else 1

    if args.command == "treedecomp":
        g = _read_graph(args.input)
        c = _effective_c(args, g)
        td = build_tree_decomposition(g, c)
        _write(args.out, json.dumps(td.to_json_dict(), indent=2) + "\n")
        return 0

    if args.command == "checktd":
        g = _read_graph(args.input)
        td = _read_json(args.td, TreeDecomposition.from_json_dict)
        report = check_tree_decomposition(g, td)
        if report.valid:
            print(f"valid, width {report.width}")
            return 0
        print(f"invalid: {report.first_failure}")
        return 1

    if args.command == "tw-exact":
        g = _read_graph(args.input)
        width, witness = exact_treewidth(g)
        print(width)
        if args.witness:
            _write(args.witness, json.dumps(witness.to_json_dict(), indent=2) + "\n")
        return 0

    if args.command == "stack":
        g = _read_graph(args.input)
        c = _effective_c(args, g)
        td = build_tree_decomposition(g, c)
        layout = layout_from_decomposition(g, td)
        _write(args.out, json.dumps(layout.to_json_dict(), indent=2) + "\n")
        return 0

    if args.command == "stack-exact":
        g = _read_graph(args.input)
        k, layout = exact_stack_number(g)
        _write(args.out, json.dumps(layout.to_json_dict(), indent=2) + "\n")
        return 0

    if args.command == "subdivide":
        g = _read_graph(args.input)
        if args.mode == "host":
            if not args.embedding:
                raise GrowthTWError("--mode host requires --embedding")
            emb = _read_json(args.embedding, HostEmbedding.from_json_dict)
            record = subdivide_in_host(g, emb, args.epsilon)
        else:
            if not args.poly:
                raise GrowthTWError("--mode uniform requires --poly COEFF...")
            coeffs = list(args.poly)

            def bound(r, _coeffs=coeffs):
                total = Fraction(0)
                for coef in _coeffs:
                    total = total * r + coef
                return total

            record = subdivide_uniform_superlinear(g, bound)
        _write(args.out, json.dumps(record.to_json_dict(), indent=2) + "\n")
        if args.result_out:
            _write(args.result_out, serialize_edge_list(record.result))
        return 0

    if args.command == "expand3":
        g = _read_graph(args.input)
        result, minor_map = expand_to_degree3(g)
        _write(args.out, serialize_edge_list(result))
        if args.map_out:
            _write(args.map_out, json.dumps(
                {str(k): v for k, v in sorted(minor_map.items())}, indent=2) + "\n")
        return 0

    if args.command == "verify":
        corpus = harness.default_corpus(small=args.small)
        reports = harness.run_theorem_suite(corpus, args.suite)
        all_pass = all(r.passed for r in reports)
        for report in reports:
            if args.jsonl:
                print(json.dumps(report.to_json_dict()))
            else:
                print(report.summary())
        if not args.jsonl:
            print(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed")
        return 0 if all_pass else 1

    if args.command == "explore-lower-bound":
        rows = harness.lower_bound_exploration(args.sizes, args.seeds)
        print("n,seed,c,treewidth")
        for row in rows:
            print(f"{row.n},{row.seed},{row.growth_constant},{row.treewidth}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
