"""growthtw benchmark: times each module from outside the program.

    python3 perfbench/run.py --workload corpus|dense|oracles --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition runs in a fresh
interpreter (perfbench/workloads.py), one at a time: first SETUP_CHILDREN
set-up-only repetitions, then full passes until S seconds have gone by and
at least MIN_PASSES passes have run.
Every pass re-checks its outputs; any failed check or exception is counted,
and the command then exits 1.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` (output checks over all passes)
and `metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1, each the median over the run's repetitions.  The lines
before it print every sample set, failed_frac and the raw timings.

Times are seconds at reference speed (see workloads.SpeedClock).  On a
shared 2-vCPU x86 VM with Python 3.11 the same code ran up to 2x slower for
tens of seconds at a time: the per-run wall time of ten runs spread by about
a third (IQR/median), and by under 5% once rescaled by a calibration kernel
sampled between calls.  Raw seconds are printed as raw_wall_s and raw_setup_s, and
reported as trace.raw_wall_s.

A traced run alternates traced and untraced passes and reports both wall
times; their difference is the tracing overhead.  The spans of its first
traced pass are written to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

# As in workloads.py, which this process does not import: it needs growthtw.
WORKLOADS = ("corpus", "dense", "oracles")
SETUP_CHILDREN = 10
# Two passes at least, so that a traced run has a traced and an untraced one.
MIN_PASSES = 2
# The whole command must end within 180 s; children get what is left of this.
TIME_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "width_total": "count",
    "stacks_total": "count",
}
LAYER_TIMES = (
    "graphs.parse_s",
    "generators.build_s",
    "growth.constant_s",
    "growth.certify_s",
    "growth.brute_s",
    "separators.split_s",
    "separators.check_s",
    "separators.rebalance_s",
    "decomposition.build_s",
    "decomposition.check_s",
    "decomposition.exact_tw_s",
    "stacklayout.layout_s",
    "stacklayout.check_s",
    "stacklayout.exact_s",
    "constructions.expand3_s",
    "constructions.subdivide_s",
    "harness.suite_s",
    "harness.explore_s",
    "bench.self_s",
)
LAYER_COUNTS = {
    "separators.rebalance_calls": "count",
    "separators.rebalance_cap_use": "ratio",
    "decomposition.bags": "count",
}
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    **LAYER_COUNTS,
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.raw_wall_s": "s",
}
# Printed for reading, not part of the JSON result.
RAW = {"raw_wall_s": "s", "raw_setup_s": "s", "speed": "ratio"}


class BenchError(Exception):
    """A repetition could not run or report."""


def spawn(workload: str, seed: int, tracing: bool, with_pass: bool, deadline: float) -> dict:
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("time limit reached before the run finished")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "workloads.py"), workload, str(seed),
            "1" if tracing else "0", "1" if with_pass else "0"]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              cwd=str(ROOT), timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("a repetition exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"repetition printed no record: {exc}") from None


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarize(setups: List[dict], passes: List[dict], trace: bool) -> dict:
    """Medians over repetitions.  `setups` holds every repetition (set-up
    time is measured in each), `passes` those that ran a pass."""
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    failed = sum(p["failed"] for p in passes)
    # One more check: every pass of a run builds the same outputs.
    quality = {(p["width_total"], p["stacks_total"]) for p in passes}
    attempted += 1
    if len(quality) != 1:
        failed += 1
        failures.append(f"passes disagree on (width_total, stacks_total): {sorted(quality)}")
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    samples: Dict[str, List[float]] = {
        "setup_s": [s["setup_s"] for s in setups],
        "wall_s": [p["wall_s"] for p in untraced],
        "raw_wall_s": [p["raw_wall_s"] for p in untraced],
        "raw_setup_s": [s["raw_setup_s"] for s in setups],
        "speed": [s["speed"] for s in setups],
        "peak_rss_mib": [p["peak_rss_mib"] for p in untraced],
        "width_total": [p["width_total"] for p in passes],
        "stacks_total": [p["stacks_total"] for p in passes],
    }
    if trace:
        for name in LAYER_TIMES:
            samples[name] = [p["self_times"].get(name, 0.0) for p in traced]
        samples["generators.build_s"] = [
            s["self_times"]["generators.build_s"] for s in setups
            if "generators.build_s" in s.get("self_times", {})]
        for name in LAYER_COUNTS:
            samples[name] = [p["counts"].get(name, 0) for p in traced]
        samples["trace.wall_s"] = [p["wall_s"] for p in traced]
        samples["trace.untraced_wall_s"] = samples["wall_s"]
        samples["trace.raw_wall_s"] = samples["raw_wall_s"]
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": median(samples[name]), "unit": unit}
               for name, unit in units.items()}
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics, "samples": samples}


def report_lines(workload: str, seed: int, summary: dict) -> List[str]:
    lines = [f"# perfbench workload={workload} seed={seed} python={sys.version.split()[0]} "
             f"nproc={os.cpu_count()}"]
    for name, values in summary["samples"].items():
        if values:
            unit = END_TO_END.get(name) or PER_LAYER.get(name) or RAW[name]
            lines.append(f"{name:32s} median {median(values):.6g} {unit}  "
                         f"min {min(values):.6g}  max {max(values):.6g}  n={len(values)}")
    attempted, failed = summary["attempted"], summary["failed"]
    lines.append(f"{'failed_frac':32s} {failed / attempted:.6g} ratio  "
                 f"({failed} of {attempted} checks)")
    lines.extend(f"FAILED: {f}" for f in summary["failures"][:20])
    return lines


def write_spans(workload: str, seed: int, passes: List[dict]) -> None:
    first = next(p for p in passes if p["traced"])
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"spans-{workload}-seed{seed}.json"
    out.write_text(json.dumps({"spans": first["spans"],
                               "speed_samples": first["speed_samples"]}))


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "growthtw" / "__init__.py").is_file():
        print(f"error: growthtw sources not found under {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    deadline = start + TIME_LIMIT_S
    setups = [spawn(workload, seed, trace, False, deadline) for _ in range(SETUP_CHILDREN)]
    passes: List[dict] = []
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(spawn(workload, seed, trace and len(passes) % 2 == 0, True, deadline))
    summary = summarize(setups + passes, passes, trace)
    if trace:
        write_spans(workload, seed, passes)
    for line in report_lines(workload, seed, summary):
        print(line)
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0 if summary["failed"] == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, args.trace == 1)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
