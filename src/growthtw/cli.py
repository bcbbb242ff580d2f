"""Command-line front end.  Exit codes: 0 success / all checks pass,
1 check failure, 2 usage or input error, 3 budget exceeded."""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import harness
from .constructions import (
    SUPERLINEAR_SCAN_BUDGET,
    HostEmbedding,
    contract_minor_map,
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
from .errors import CapacityError, GrowthTWError, InvariantViolationError
from .generators import FAMILIES, generate, random_cubic
from .graphs import parse_edge_list, serialize_edge_list
from .growth import growth_constant, growth_profile
from .separators import (
    bfs_layer_separation,
    check_separation,
    separation_alpha,
)
from .stacklayout import _layout, check_stack_layout, exact_stack_number


# Fraction("1e<N>") expands 10**N into an exact integer, in time and memory
# that grow without limit in N; 4300 is the digit cap Python 3.11 puts on
# int parsing.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)
# Python 3.11 also refuses to print an int of more than 4300 digits, that is,
# of absolute value 10**4300 or more.  A rational p/q is printed back as
# itself (the "c must be >= 1" message) and as alpha = 1 - 1/(4c) =
# (4p - q)/(4p), so 4|p| and q must stay below this.
PRINTABLE_INT_LIMIT = 10 ** MAX_DECIMAL_EXPONENT


def _fraction(text: str) -> Fraction:
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).lstrip("+-").replace("_", "").lstrip("0") or "0"
        # Lengths first, so that a long exponent is never parsed as an int.
        if len(digits) > 4 or int(digits) > MAX_DECIMAL_EXPONENT:
            raise argparse.ArgumentTypeError(
                f"decimal exponent past {MAX_DECIMAL_EXPONENT} in absolute value: {text!r}"
            )
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected an integer or p/q, got {text!r}")
    if 4 * abs(value.numerator) >= PRINTABLE_INT_LIMIT or value.denominator >= PRINTABLE_INT_LIMIT:
        raise argparse.ArgumentTypeError(
            f"numerator or denominator too large to print (4|p| and q must stay "
            f"below 10**{MAX_DECIMAL_EXPONENT}): {text!r}"
        )
    return value


def _int_list(text: str):
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _read_graph(path: str):
    """Parse the edge list at `path` ("-" for stdin); unreadable text, or
    text that is not UTF-8, is an input error (exit 2)."""
    try:
        if path == "-":
            # The raw bytes, decoded as a file is: the interpreter's own stdin
            # decoding would let bad bytes through under a C locale.
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GrowthTWError(f"cannot read {path}: {exc}") from exc
    return parse_edge_list(text)


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
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        # json.load raises RecursionError on arrays nested past the limit.
        raise GrowthTWError(f"malformed {path}: {exc!r}") from exc


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise GrowthTWError(f"cannot write {path}: {exc}") from exc


def _write_json(path: str, data):
    _write(path, json.dumps(data, indent=2) + "\n")


def _effective_c(args, g) -> Fraction:
    if args.c is not None:
        return args.c
    c = growth_constant(g)
    print(f"# using measured growth constant c = {c}", file=sys.stderr)
    return c


def _generate(args) -> int:
    if args.family == "cubic":
        g = random_cubic(args.size, args.seed)
    else:
        g = generate(args.family, args.size)
    _write(args.out, serialize_edge_list(g))
    return 0


def _growth(args) -> int:
    g = _read_graph(args.input)
    r_max = args.r_max if args.r_max is not None else max(1, g.n)
    profile = growth_profile(g, r_max)
    lines = [f"{r},{f}" for r, f in enumerate(profile.values, start=1)]
    lines.append(f"# c = {profile.growth_constant} at r = {profile.argmax_radius}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _separate(args) -> int:
    g = _read_graph(args.input)
    c = _effective_c(args, g)
    alpha = separation_alpha(c)
    sep, layering = bfs_layer_separation(g, None, c)
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
    if args.trace:
        if layering is not None:
            payload["trace"] = {**layering.to_json_dict(), "c": str(c)}
        else:
            print("# no trace: the separation peels whole components and cuts no layer",
                  file=sys.stderr)
    _write_json(args.out, payload)
    return 0 if report.valid else 1


def _check_td(g, td):
    report = check_tree_decomposition(g, td)
    if not report.valid:
        raise InvariantViolationError(f"tree decomposition: {report.first_failure}")
    return report


def _check_layout(g, layout):
    verdict = check_stack_layout(g, layout)
    if not verdict.valid:
        e, f = verdict.first_crossing
        raise InvariantViolationError(f"stack layout: edges {e} and {f} cross on one stack")
    return layout


def _treedecomp(args) -> int:
    g = _read_graph(args.input)
    td = build_tree_decomposition(g, _effective_c(args, g))
    _check_td(g, td)
    _write_json(args.out, td.to_json_dict())
    return 0


def _checktd(args) -> int:
    g = _read_graph(args.input)
    td = _read_json(args.td, TreeDecomposition.from_json_dict)
    report = check_tree_decomposition(g, td)
    if report.valid:
        print(f"valid, width {report.width}")
        return 0
    print(f"invalid: {report.first_failure}")
    return 1


def _tw_exact(args) -> int:
    g = _read_graph(args.input)
    width, witness = exact_treewidth(g)
    report = _check_td(g, witness)
    if report.width != width:
        raise InvariantViolationError(
            f"tree decomposition: width {report.width}, not the treewidth {width}")
    print(width)
    if args.witness:
        _write_json(args.witness, witness.to_json_dict())
    return 0


def _stack(args) -> int:
    g = _read_graph(args.input)
    td = build_tree_decomposition(g, _effective_c(args, g))
    _check_td(g, td)
    _write_json(args.out, _check_layout(g, _layout(g, td)).to_json_dict())
    return 0


def _stack_exact(args) -> int:
    g = _read_graph(args.input)
    _write_json(args.out, _check_layout(g, exact_stack_number(g)[1]).to_json_dict())
    return 0


def _subdivide(args) -> int:
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
        # For f(r) = a*r + b with a <= 2m, f(r) - 2rm - n never grows with r,
        # so f reaches 2rm + n at some radius only if it does at r = 1.
        a, b = ([0, 0] + coeffs)[-2:]
        if not any(coeffs[:-2]) and a <= 2 * g.m and a + b < 2 * g.m + g.n:
            raise GrowthTWError(
                f"f(r) = {a}*r + {b} never reaches 2*r*m + n (m = {g.m}, n = {g.n})"
            )

        def bound(r):
            total = Fraction(0)
            for coef in coeffs:
                total = total * r + coef
            return total

        # With nonnegative coefficients f, and so p(r) = f(r) - 2rm - n, is
        # convex on r >= 1: p < 0 at r = 1 and at the scan budget means p < 0
        # at every radius the scan tries.  If also f(1) >= delta + 1 and
        # f'(1) >= delta, then f(r) >= delta*r + 1 at every radius, so the
        # scan could only end at its budget.
        budget, delta = SUPERLINEAR_SCAN_BUDGET, g.max_degree()
        slope = sum(i * coef for i, coef in enumerate(reversed(coeffs)))
        if (min(coeffs) >= 0 and bound(1) >= delta + 1 and slope >= delta
                and all(bound(r) < 2 * r * g.m + g.n for r in (1, budget))):
            raise GrowthTWError(
                f"f(r) < 2*r*m + n for all r <= {budget}; f is not superlinear enough"
            )

        record = subdivide_uniform_superlinear(g, bound)
    _write_json(args.out, record.to_json_dict())
    if args.result_out:
        _write(args.result_out, serialize_edge_list(record.result))
    return 0


def _expand3(args) -> int:
    g = _read_graph(args.input)
    result, minor_map = expand_to_degree3(g)
    # Linear: the degrees, then one contraction of the map's branch sets.
    try:
        if result.max_degree() > 3:
            raise InvariantViolationError(f"max degree {result.max_degree()} > 3")
        if contract_minor_map(result, minor_map) != g:
            raise InvariantViolationError("the map does not contract it back to the input")
    except GrowthTWError as exc:
        raise InvariantViolationError(f"degree-3 expansion: {exc}") from exc
    _write(args.out, serialize_edge_list(result))
    if args.map_out:
        _write_json(args.map_out, {str(k): v for k, v in sorted(minor_map.items())})
    return 0


def _verify(args) -> int:
    corpus = harness.default_corpus(small=args.small)
    reports = harness.run_theorem_suite(corpus, args.suite)
    for report in reports:
        if args.jsonl:
            print(json.dumps(report.to_json_dict()))
        else:
            print(report.summary())
    if not args.jsonl:
        print(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed")
    return 0 if all(r.passed for r in reports) else 1


def _explore_lower_bound(args) -> int:
    rows = harness.lower_bound_exploration(args.sizes, args.seeds)
    print("n,seed,c,treewidth")
    for row in rows:
        print(f"{row.n},{row.seed},{row.growth_constant},{row.treewidth}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The command table: each subcommand is bound to its handler through
    `run`, and the arguments several commands share are declared once."""
    parser = argparse.ArgumentParser(
        prog="growthtw",
        description="Growth functions, balanced separators, tree-decompositions, "
        "stack layouts, and growth-certified subdivisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("input", nargs="?", default="-")
    growth_c = argparse.ArgumentParser(add_help=False)
    growth_c.add_argument("--c", type=_fraction, default=None,
                          help="growth parameter; defaults to the measured growth constant")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--out", default="-")

    def command(name, run, help, *parents):
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(run=run)
        return p

    p = command("generate", _generate, "emit a named graph family as an edge list", out)
    p.add_argument("family", choices=FAMILIES + ("cubic",))
    p.add_argument("size", type=int)
    p.add_argument("--seed", type=int, default=0, help="seed for the cubic family")

    p = command("growth", _growth, "growth function as CSV rows r,f plus the constant",
                graph, out)
    p.add_argument("--r-max", type=int, default=None)

    p = command("separate", _separate, "balanced separation report as JSON",
                graph, growth_c, out)
    p.add_argument("--trace", action="store_true", help="include the layer-split trace")

    command("treedecomp", _treedecomp, "build a tree-decomposition as JSON",
            graph, growth_c, out)

    p = command("checktd", _checktd, "validate a tree-decomposition JSON file", graph)
    p.add_argument("--td", required=True)

    p = command("tw-exact", _tw_exact, "exact treewidth (small graphs)", graph)
    p.add_argument("--witness", default=None, help="write the witness decomposition JSON here")

    command("stack", _stack, "heuristic stack layout as JSON", graph, growth_c, out)
    command("stack-exact", _stack_exact, "exact stack number (small graphs)", graph, out)

    p = command("subdivide", _subdivide, "growth-certified subdivision", graph, out)
    # No option here looks like a number, so -1/2 and -1e3 are --poly
    # coefficients (argparse itself reads only -N and -N.N as numbers).
    p._negative_number_matcher = re.compile(r"-\.?\d")
    p.add_argument("--mode", choices=("host", "uniform"), required=True)
    p.add_argument("--embedding", help="HostEmbedding JSON file (host mode)")
    p.add_argument("--epsilon", type=_fraction, default=Fraction(1))
    p.add_argument("--poly", type=_fraction, nargs="+", metavar="COEFF",
                   help="bound polynomial, highest degree first (uniform mode)")
    p.add_argument("--result-out", default=None, help="write the result edge list here")

    p = command("expand3", _expand3, "split high-degree vertices to reach max degree 3",
                graph, out)
    p.add_argument("--map-out", default=None, help="write the new->original vertex map JSON here")

    p = command("verify", _verify, "run the theorem-replication suites")
    p.add_argument("--suite", choices=harness.SUITES, default="all")
    p.add_argument("--small", action="store_true", help="use the trimmed corpus")
    p.add_argument("--jsonl", action="store_true", help="emit JSON lines instead of text")

    p = command("explore-lower-bound", _explore_lower_bound,
                "growth constant vs exact treewidth for random cubic graphs")
    p.add_argument("--sizes", type=_int_list, required=True)
    p.add_argument("--seeds", type=_int_list, default=[1])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except CapacityError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except GrowthTWError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
