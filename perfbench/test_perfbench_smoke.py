"""Smoke test for the benchmark: a tiny configuration of every workload
reports every metric BENCHMARK.json names, with its unit, and the output
checks count a corrupted decomposition as a failure."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from growthtw.decomposition import TreeDecomposition  # noqa: E402
from growthtw.generators import complete, cycle, path, random_cubic, strong_product  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_inputs(workload):
    inputs = workloads.build_inputs(workload, 1)
    if workload == "corpus":
        return dataclasses.replace(
            inputs,
            graphs=[(name, g) for name, g in inputs.graphs if g.n <= 20],
            suite_corpus=[(name, g) for name, g in inputs.suite_corpus if g.n <= 20])
    if workload == "dense":
        return dataclasses.replace(
            inputs, graphs=[("K3xP4", strong_product(complete(3), path(4)))])
    return dataclasses.replace(
        inputs,
        explore_sizes=(8,), explore_seeds=(1,), expand=inputs.expand[:2],
        cliques=[("K4", complete(4)), ("K5", complete(5))],
        stack=[("cubic-6", random_cubic(6, 1))],
        brute=[("path-4", path(4))], edge_subsets=[("cycle-4", cycle(4))],
        host=inputs.host[:1], uniform=[("complete-3", complete(3))],
    )


def tiny_run(workload, trace):
    setups = [workloads.repetition(workload, 1, trace, False)]
    passes = [workloads.repetition(workload, 1, tracing, True, tiny_inputs(workload))
              for tracing in ((True, False) if trace else (False,))]
    return passes, run.summarize(setups + passes, passes, trace)


def units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric(workload):
    _, summary = tiny_run(workload, trace=False)
    assert summary["failed"] == 0, summary["failures"]
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == units("end_to_end")
    passes, traced = tiny_run(workload, trace=True)
    assert traced["failed"] == 0, traced["failures"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == units("per_layer")
    # Self times of the pass's spans add up to its traced wall time.
    record = passes[0]
    pass_self = sum(t for name, t in record["self_times"].items()
                    if name != "generators.build_s")
    assert pass_self == pytest.approx(record["wall_s"], rel=1e-9)


def test_dropped_bag_counts_as_failure(monkeypatch):
    build = workloads.build_tree_decomposition

    def drop_first_bag(g, c):
        td = build(g, c)
        return TreeDecomposition(bags=td.bags[1:], edges=td.edges)

    monkeypatch.setattr(workloads, "build_tree_decomposition", drop_first_bag)
    _, summary = tiny_run("dense", trace=False)
    assert summary["failed"] >= 1
    assert any("decomposition invalid" in f for f in summary["failures"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
