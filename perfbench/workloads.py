"""One repetition of a perfbench workload, run in a fresh interpreter.

    python3 perfbench/workloads.py <workload> <seed> <trace 0|1> <pass 0|1>

builds the workload's seeded inputs (the set-up), then, with pass = 1, runs
one full pass over them and re-checks every output.  It prints one JSON
object: set-up time, pass wall time, peak RSS, check counts, output quality
and, when tracing, per-layer self times.  Every call into growthtw goes
through `Recorder.call`, which names the layer it belongs to; spans exist
only around public calls, so work a public function does internally is
charged to that call's layer.

A fresh process per repetition matters: `growth._radius_table` is an
`lru_cache` keyed by graph, so a second pass in one process would skip the
brute-force enumeration, and `ru_maxrss` is a per-process high-water mark.
"""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
import sys
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Dict, List, Optional, Tuple

from growthtw.constructions import (
    contract_minor_map,
    expand_to_degree3,
    subdivide_in_host,
    subdivide_uniform_superlinear,
)
from growthtw.decomposition import (
    build_tree_decomposition,
    check_tree_decomposition,
    exact_treewidth,
)
from growthtw.generators import (
    blow_up,
    complete,
    complete_binary_tree,
    grid,
    path,
    random_cubic,
    star,
    strong_product,
)
from growthtw.graphs import Graph, components, parse_edge_list, serialize_edge_list
from growthtw.growth import (
    brute_force_growth,
    brute_force_growth_edge_subsets,
    growth_constant,
    growth_profile,
    verify_growth_bound,
)
from growthtw.harness import (
    default_corpus,
    identity_tree_embedding,
    lower_bound_exploration,
    random_tree,
    run_theorem_suite,
    treewidth_bound,
)
from growthtw.separators import (
    bfs_layer_separation,
    check_separation,
    iteration_cap,
    two_thirds_separation,
)
from growthtw.stacklayout import (
    check_stack_layout,
    exact_stack_number,
    layout_from_decomposition,
)

WORKLOADS = ("corpus", "dense", "oracles")

Named = List[Tuple[str, Graph]]

# growth_constant of every default_corpus() graph.  The constant is an
# isomorphism invariant, so it is pinned for the relabelled corpus too.
PINNED_CORPUS_C = {
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
GRID4_TREEWIDTH = 4

# Speed calibration: a fixed kernel that mixes the three kinds of Python the
# layers run, in about equal time: BFS with dict and deque (growth,
# separators, builder), bitmask BFS (exact treewidth, brute force) and tuple
# permutations (stack layouts).  It uses no growthtw code, so no change to
# the program moves it.  Each kind alone tracked some layers' speed worse
# than the mix did.
KERNEL_REFERENCE_S = 0.005
SAMPLE_INTERVAL_S = 0.25
_K = 16
_KERNEL_GRID = tuple(
    tuple(w for w, ok in ((v - 1, v % _K), (v + 1, (v + 1) % _K), (v - _K, v >= _K),
                          (v + _K, v + _K < _K * _K)) if ok)
    for v in range(_K * _K)
)
_KERNEL_MASKS = tuple(sum(1 << w for w in neighbours) for neighbours in _KERNEL_GRID)


class SpeedClock:
    """Time at reference speed.

    On a shared host the same Python code runs up to 2x slower for tens of
    seconds at a time, while the ratio between two pieces of Python code
    stays within a few percent.  So the clock times a fixed calibration
    kernel (`sample`) between calls into growthtw, and between two samples
    it scales raw time by KERNEL_REFERENCE_S / (mean kernel time of the two
    samples).  The samples themselves count as no time."""

    def __init__(self):
        self.samples: List[Tuple[float, float, float]] = []  # raw start, raw end, kernel s

    def sample(self) -> None:
        start = time.perf_counter()
        kernel = statistics.median(_kernel_seconds() for _ in range(3))
        self.samples.append((start, time.perf_counter(), kernel))

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.samples[-1][1] >= SAMPLE_INTERVAL_S:
            self.sample()

    def elapsed(self, t0: float, t1: float, reference: bool = True) -> float:
        """Seconds between raw times t0 <= t1, both between the first and the
        last sample; at reference speed unless `reference` is false."""
        total = 0.0
        for (_, end0, k0), (start1, _, k1) in zip(self.samples, self.samples[1:]):
            lo, hi = max(t0, end0), min(t1, start1)
            if hi > lo:
                total += (hi - lo) * (2 * KERNEL_REFERENCE_S / (k0 + k1) if reference else 1.0)
        return total

    def speed(self) -> float:
        """Median machine speed over the samples, 1.0 at reference speed."""
        return KERNEL_REFERENCE_S / statistics.median(k for _, _, k in self.samples)


def _kernel_seconds() -> float:
    start = time.perf_counter()
    for source in range(0, len(_KERNEL_GRID), 10):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in _KERNEL_GRID[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
    for source in range(0, len(_KERNEL_MASKS), 10):
        reached = frontier = 1 << source
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= _KERNEL_MASKS[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~reached
            reached |= frontier
    for _ in range(3):
        sum(1 for order in permutations(range(7)) if order[0] < order[-1])
    return time.perf_counter() - start


class Recorder:
    """Calls into growthtw by layer, sampling machine speed between calls.
    With tracing on it keeps one span per call in memory: name, workload
    item, raw start and end, and the index of the enclosing span."""

    def __init__(self, tracing: bool, clock: SpeedClock):
        self.tracing = tracing
        self.clock = clock
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = {}
        self._open: List[int] = []
        self._item = ""

    def call(self, layer: str, fn, *args):
        self.clock.sample_if_due()
        if not self.tracing:
            return fn(*args)
        with self.span(layer):
            return fn(*args)

    @contextmanager
    def span(self, name: str, item: Optional[str] = None):
        if not self.tracing:
            yield
            return
        outer_item = self._item
        if item is not None:
            self._item = item
        record = {"name": name, "item": self._item, "start": time.perf_counter(),
                  "end": None, "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            self._item = outer_item

    def count(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def self_times(self) -> Dict[str, float]:
        """Self time per layer at reference speed: span duration minus its
        child spans.  The benchmark's own spans (bench.pass, bench.item) add
        up to bench.self_s, its bookkeeping between calls into growthtw."""
        own = [self.clock.elapsed(s["start"], s["end"]) for s in self.spans]
        for s, duration in zip(self.spans, list(own)):
            if s["parent"] is not None:
                own[s["parent"]] -= duration
        totals: Dict[str, float] = {}
        for s, t in zip(self.spans, own):
            name = "bench.self_s" if s["name"].startswith("bench.") else s["name"]
            totals[name] = totals.get(name, 0.0) + t
        return totals


class Gate:
    """Counts output checks; every failed check or exception is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @contextmanager
    def guard(self, what: str):
        try:
            yield
        except Exception as exc:  # a raising stage is a failed check
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------- inputs

@dataclass(frozen=True)
class PipelineInputs:
    """Graphs for the corpus and dense workloads.  `suite_corpus` feeds the
    theorem suites; t3.1 recognises grids by their row-major labels, so it
    always gets the default labelling."""

    graphs: Named
    suite_corpus: Optional[Named] = None


@dataclass(frozen=True)
class OracleInputs:
    explore_sizes: Tuple[int, ...]
    explore_seeds: Tuple[int, ...]
    expand: Named          # corpus graphs small enough to expand and solve
    grid4: Graph
    cliques: Named
    stack: Named
    brute: Named
    edge_subsets: Named
    host: Named
    uniform: Named


def relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def build_inputs(workload: str, seed: int):
    """The workload's graphs.  Seed 0 on corpus is default_corpus() exactly;
    other seeds relabel every corpus graph so that no id-based tie-break is
    favoured.  On dense and oracles the seed drives random_cubic and
    random_tree."""
    if workload == "corpus":
        corpus = default_corpus()
        if seed == 0:
            return PipelineInputs(graphs=corpus, suite_corpus=corpus)
        rng = random.Random(seed)
        return PipelineInputs(
            graphs=[(name, relabel(g, rng)) for name, g in corpus],
            suite_corpus=corpus,
        )
    if workload == "dense":
        return PipelineInputs(graphs=[
            ("K10xP30", strong_product(complete(10), path(30))),
            ("P8^3", strong_product(strong_product(path(8), path(8)), path(8))),
            ("tree80xK6", strong_product(random_tree(80, seed), complete(6))),
            ("cubic60-blowup4", blow_up(random_cubic(60, seed), 4)),
        ])
    if workload == "oracles":
        small = [(name, g) for name, g in default_corpus(small=True) if g.n <= 18]
        cubic8 = random_cubic(8, seed)
        tree12 = random_tree(12, seed)
        return OracleInputs(
            explore_sizes=(16, 18),
            explore_seeds=(3 * seed + 1, 3 * seed + 2, 3 * seed + 3),
            expand=small,
            grid4=grid(4),
            cliques=[(f"K{k}", complete(k)) for k in (6, 7, 8)],
            stack=[("cubic-8", cubic8)],
            brute=[("cubic-10", random_cubic(10, seed)), ("tree-12", tree12),
                   ("complete-6", complete(6))],
            edge_subsets=[("tree-12", tree12), ("cubic-8", cubic8)],
            host=[("path-2", path(2)), ("cbt-7", complete_binary_tree(7)),
                  ("star-6", star(6))],
            uniform=[("complete-4", complete(4)), ("cubic-8", cubic8)],
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------- passes

@dataclass
class Quality:
    width_total: int = 0
    stacks_total: int = 0


def roundtrip(rec: Recorder, gate: Gate, name: str, g: Graph) -> Graph:
    text = rec.call("graphs.parse_s", serialize_edge_list, g)
    parsed = rec.call("graphs.parse_s", parse_edge_list, text)
    gate.check(parsed == g, f"{name}: edge-list round trip changed the graph")
    return parsed


def check_decomposition(rec: Recorder, gate: Gate, name: str, g: Graph, td, bound: int) -> int:
    report = rec.call("decomposition.check_s", check_tree_decomposition, g, td)
    gate.check(report.valid, f"{name}: decomposition invalid: {report.first_failure}")
    gate.check(report.width <= bound, f"{name}: width {report.width} > bound {bound}")
    return report.width


def pipeline(rec: Recorder, gate: Gate, quality: Quality, name: str, g: Graph,
             pinned_c: Optional[Fraction]) -> None:
    g = roundtrip(rec, gate, name, g)
    c = rec.call("growth.constant_s", growth_constant, g)
    if pinned_c is not None:
        gate.check(c == pinned_c, f"{name}: growth constant {c} != pinned {pinned_c}")
    bound = treewidth_bound(c)
    alpha = 1 - Fraction(1, 4 * c)
    for comp in components(g):
        if len(comp) < 2:
            continue
        X = frozenset(comp)
        sep, _ = rec.call("separators.split_s", bfs_layer_separation, g, X, c)
        rep = rec.call("separators.check_s", check_separation, g, X, sep, alpha)
        gate.check(rep.valid, f"{name}: layer split invalid: {rep.failure}")
        gate.check(sep.order < 2 * c, f"{name}: split order {sep.order} >= 2c")
        gate.check(rep.exclusive_ratio <= alpha,
                   f"{name}: split side ratio {rep.exclusive_ratio} > {alpha}")
    sep, calls = rec.call("separators.rebalance_s", two_thirds_separation, g, None, c)
    cap = iteration_cap(max(Fraction(2, 3), alpha))
    rec.count("separators.rebalance_calls", calls)
    rec.peak("separators.rebalance_cap_use", calls / cap)
    rep = rec.call("separators.check_s", check_separation, g, None, sep, Fraction(2, 3))
    gate.check(rep.valid and 3 * max(rep.sides[0], rep.sides[2]) <= 2 * g.n,
               f"{name}: 2/3 separation invalid or unbalanced: {rep.failure}")
    gate.check(calls <= cap, f"{name}: {calls} rebalance calls > cap {cap}")
    td = rec.call("decomposition.build_s", build_tree_decomposition, g, c)
    rec.count("decomposition.bags", len(td.bags))
    quality.width_total += check_decomposition(rec, gate, name, g, td, bound)
    layout = rec.call("stacklayout.layout_s", layout_from_decomposition, g, td)
    verdict = rec.call("stacklayout.check_s", check_stack_layout, g, layout)
    gate.check(verdict.valid, f"{name}: stack layout crossing {verdict.first_crossing}")
    gate.check(layout.k <= bound + 1, f"{name}: {layout.k} stacks > bound {bound + 1}")
    quality.stacks_total += layout.k


def suite(rec: Recorder, gate: Gate, corpus: Named, which: str) -> None:
    reports = rec.call("harness.suite_s", run_theorem_suite, corpus, which)
    gate.check(bool(reports), f"suite {which}: no reports")
    for r in reports:
        gate.check(r.passed, f"suite {which}: {r.summary()}")


def pipeline_pass(rec: Recorder, gate: Gate, inputs: PipelineInputs, pinned: bool) -> Quality:
    quality = Quality()
    for name, g in inputs.graphs:
        with rec.span("bench.item", name), gate.guard(name):
            pipeline(rec, gate, quality, name, g,
                     PINNED_CORPUS_C[name] if pinned else None)
    if inputs.suite_corpus is not None:
        for which in ("t3.1", "t5"):
            with rec.span("bench.item", f"suite-{which}"), gate.guard(f"suite {which}"):
                suite(rec, gate, inputs.suite_corpus, which)
    return quality


def exact_tw_case(rec, gate, quality, name, g, expected=None) -> None:
    width, witness = rec.call("decomposition.exact_tw_s", exact_treewidth, g)
    check_decomposition(rec, gate, name, g, witness, width)
    gate.check(witness.width == width, f"{name}: witness width {witness.width} != {width}")
    if expected is not None:
        gate.check(width == expected, f"{name}: treewidth {width} != pinned {expected}")
    quality.width_total += width


def exact_stack_case(rec, gate, quality, name, g, expected=None) -> None:
    k, layout = rec.call("stacklayout.exact_s", exact_stack_number, g)
    verdict = rec.call("stacklayout.check_s", check_stack_layout, g, layout)
    gate.check(verdict.valid and layout.k == k, f"{name}: exact layout invalid")
    if expected is not None:
        gate.check(k == expected, f"{name}: stack number {k} != pinned {expected}")
    quality.stacks_total += k


def oracle_pass(rec: Recorder, gate: Gate, inputs: OracleInputs) -> Quality:
    quality = Quality()
    # One call per (size, seed), so the speed clock samples between them.
    for n in inputs.explore_sizes:
        for explore_seed in inputs.explore_seeds:
            item = f"explore-{n}-{explore_seed}"
            with rec.span("bench.item", item), gate.guard(item):
                rows = rec.call("harness.explore_s", lower_bound_exploration,
                                [n], [explore_seed])
                gate.check(len(rows) == 1 and rows[0].treewidth is not None,
                           f"{item}: no treewidth row")
                quality.width_total += rows[0].treewidth
    for name, g in inputs.expand:
        with rec.span("bench.item", f"expand3-{name}"), gate.guard(f"expand3 {name}"):
            g = roundtrip(rec, gate, name, g)
            h, minor_map = rec.call("constructions.expand3_s", expand_to_degree3, g)
            back = rec.call("constructions.expand3_s", contract_minor_map, h, minor_map)
            gate.check(back == g and h.max_degree() <= 3, f"{name}: degree-3 expansion broken")
            if h.n <= 18:
                exact_tw_case(rec, gate, quality, f"{name}-deg3", h)
    with rec.span("bench.item", "tw-grid-4"), gate.guard("tw grid-4"):
        g = roundtrip(rec, gate, "grid-4", inputs.grid4)
        exact_tw_case(rec, gate, quality, "grid-4", g, GRID4_TREEWIDTH)
    for name, g in inputs.cliques:
        with rec.span("bench.item", f"stack-{name}"), gate.guard(f"stack {name}"):
            g = roundtrip(rec, gate, name, g)
            exact_stack_case(rec, gate, quality, name, g, math.ceil(g.n / 2))
    for name, g in inputs.stack:
        with rec.span("bench.item", f"stack-{name}"), gate.guard(f"stack {name}"):
            g = roundtrip(rec, gate, name, g)
            exact_stack_case(rec, gate, quality, name, g)
    for oracle, cases in ((brute_force_growth, inputs.brute),
                          (brute_force_growth_edge_subsets, inputs.edge_subsets)):
        for name, g in cases:
            with rec.span("bench.item", f"{oracle.__name__}-{name}"), gate.guard(name):
                g = roundtrip(rec, gate, name, g)
                profile = rec.call("growth.constant_s", growth_profile, g, g.n)
                for r in range(1, g.n + 1):
                    value = rec.call("growth.brute_s", oracle, g, r)
                    gate.check(value == profile.f(r),
                               f"{name}: {oracle.__name__}(r={r}) = {value} != f(r) = {profile.f(r)}")
    for name, tree in inputs.host:
        with rec.span("bench.item", f"host-{name}"), gate.guard(f"host {name}"):
            tree = roundtrip(rec, gate, name, tree)
            record = rec.call("constructions.subdivide_s", subdivide_in_host,
                              tree, identity_tree_embedding(tree), 1)
            slope = tree.max_degree() + 1
            cert = rec.call("growth.certify_s", verify_growth_bound, record.result,
                            lambda r: Fraction(slope * r + 1))
            gate.check(cert.holds, f"{name}: host certificate fails at {cert.first_violation}")
    for name, g in inputs.uniform:
        with rec.span("bench.item", f"uniform-{name}"), gate.guard(f"uniform {name}"):
            g = roundtrip(rec, gate, name, g)

            def quadratic(r):
                return Fraction(r * r + 3 * r + 1)

            record = rec.call("constructions.subdivide_s",
                              subdivide_uniform_superlinear, g, quadratic)
            cert = rec.call("growth.certify_s", verify_growth_bound, record.result, quadratic)
            gate.check(cert.holds, f"{name}: uniform certificate fails at {cert.first_violation}")
    return quality


def run_pass(rec: Recorder, gate: Gate, workload: str, inputs) -> Quality:
    if workload == "oracles":
        return oracle_pass(rec, gate, inputs)
    return pipeline_pass(rec, gate, inputs, pinned=workload == "corpus")


# ---------------------------------------------------------------- repetition

def repetition(workload: str, seed: int, tracing: bool, with_pass: bool,
               inputs=None) -> dict:
    """Set up (unless `inputs` is given) and optionally run one pass.  The
    returned record is what the child process prints; times in it are at
    reference speed, and raw_* fields hold the raw seconds."""
    clock = SpeedClock()
    rec = Recorder(tracing, clock)
    clock.sample()
    start = time.perf_counter()
    if inputs is None:
        with rec.span("generators.build_s", "setup"):
            inputs = build_inputs(workload, seed)
    end = time.perf_counter()
    clock.sample()
    record = {"workload": workload, "seed": seed, "traced": tracing,
              "setup_s": clock.elapsed(start, end),
              "raw_setup_s": clock.elapsed(start, end, reference=False)}
    if with_pass:
        gate = Gate()
        start = time.perf_counter()
        with rec.span("bench.pass", workload):
            quality = run_pass(rec, gate, workload, inputs)
        end = time.perf_counter()
        clock.sample()
        if tracing:  # so that the pass's self times add up to its wall time
            root = next(s for s in rec.spans if s["name"] == "bench.pass")
            start, end = root["start"], root["end"]
        record.update(
            wall_s=clock.elapsed(start, end),
            raw_wall_s=clock.elapsed(start, end, reference=False),
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=gate.attempted,
            failed=len(gate.failures),
            failures=gate.failures[:20],
            width_total=quality.width_total,
            stacks_total=quality.stacks_total,
            counts=rec.counts,
        )
    record["speed"] = clock.speed()
    if tracing:
        record.update(self_times=rec.self_times(), spans=rec.spans,
                      speed_samples=clock.samples)
    return record


def main(argv: List[str]) -> int:
    if len(argv) != 4 or argv[0] not in WORKLOADS:
        print("usage: workloads.py <corpus|dense|oracles> <seed> <trace 0|1> <pass 0|1>",
              file=sys.stderr)
        return 2
    workload, seed, tracing, with_pass = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    print(json.dumps(repetition(workload, seed, tracing, with_pass)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
