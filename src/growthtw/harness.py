"""Theorem-replication suites: run a corpus through the full pipeline and
check every desk-scale inequality exactly; plus the lower-bound exploration
table for random cubic graphs."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .constructions import (
    HostEmbedding,
    subdivide_in_host,
    subdivide_uniform_superlinear,
)
from .decomposition import (
    _exact_treewidth_size,
    build_tree_decomposition,
    check_tree_decomposition,
    exact_treewidth,
    grid_identity_model,
    verify_grid_minor_model,
)
from .errors import InvariantViolationError, RangeError
from .generators import complete, complete_binary_tree, cycle, grid, path, random_cubic, star, strong_product
from .graphs import Graph, _within_budget
from .growth import growth_constant, verify_growth_bound
from .stacklayout import _layout, check_stack_layout

SUITES = ("t1.1", "t1.2", "t3.1", "t5", "all")


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    name: str
    measured: Dict[str, object]
    bound: Optional[Fraction]
    passed: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "name": self.name,
            "measured": {k: str(v) for k, v in self.measured.items()},
            "bound": None if self.bound is None else str(self.bound),
            "passed": self.passed,
            "detail": self.detail,
        }

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        meas = ", ".join(f"{k}={v}" for k, v in self.measured.items())
        bound = "" if self.bound is None else f" bound={self.bound}"
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.theorem} {self.name}: {meas}{bound}{extra}"


def random_tree(n: int, seed: int) -> Graph:
    """Random recursive tree: vertex i >= 1 attaches to a uniform earlier one.
    Past the vertex budget it is a CapacityError before any pair is drawn."""
    if n < 1:
        raise RangeError(f"tree needs n >= 1, got {n}")
    _within_budget(n)
    rng = random.Random(seed)
    return Graph(n, [(i, rng.randrange(i)) for i in range(1, n)])


def default_corpus(small: bool = False) -> List[Tuple[str, Graph]]:
    """Named corpus spanning the studied families at sizes where every check
    is exact.  `small` trims the large entries for quick runs."""
    entries: List[Tuple[str, Graph]] = [
        ("path-10", path(10)),
        ("path-50", path(50)),
        ("cycle-9", cycle(9)),
        ("cycle-50", cycle(50)),
        ("star-10", star(10)),
        ("star-40", star(40)),
        ("complete-5", complete(5)),
        ("cbt-15", complete_binary_tree(15)),
        ("cbt-63", complete_binary_tree(63)),
        ("grid-3", grid(3)),
        ("grid-4", grid(4)),
        ("grid-8", grid(8)),
        ("random-tree-200", random_tree(200, seed=11)),
        ("cubic-20", random_cubic(20, seed=7)),
        ("cubic-100", random_cubic(100, seed=13)),
        ("product-P8xP8", strong_product(path(8), path(8))),
        ("product-P4^3", strong_product(strong_product(path(4), path(4)), path(4))),
    ]
    if not small:
        entries.extend(
            [
                ("path-2000", path(2000)),
                ("cycle-500", cycle(500)),
                ("grid-20", grid(20)),
                ("random-tree-1000", random_tree(1000, seed=23)),
                ("cubic-500", random_cubic(500, seed=29)),
                ("product-P12xP12", strong_product(path(12), path(12))),
                ("product-P6^3", strong_product(strong_product(path(6), path(6)), path(6))),
            ]
        )
    return entries


def treewidth_bound(c: Fraction) -> int:
    """floor(49 c^2 + 30 c), evaluated as an exact rational."""
    return math.floor(49 * c * c + 30 * c)


def run_theorem_suite(
    corpus: Sequence[Tuple[str, Graph]], which: str = "all"
) -> List[TheoremReport]:
    """One walk over the corpus measures c once for each graph a chosen
    suite reads.  Rows come out as all t1.x rows, then t3.1, then t5."""
    if which not in SUITES:
        raise RangeError(f"unknown suite {which!r}; choose from {SUITES}")
    decomposed = which in ("t1.1", "t1.2", "all")
    reports: List[TheoremReport] = []
    grid_reports: List[TheoremReport] = []
    for name, g in corpus:
        side = _grid_side(g) if which in ("t3.1", "all") else None
        if not decomposed and side is None:
            continue
        c = growth_constant(g)
        if side is not None:
            # Self-consistency: a grid contains itself as a minor, so the
            # excluded grid side ceil(2c) must exceed its own side.
            excluded = math.ceil(2 * c)
            grid_reports.append(
                TheoremReport(
                    theorem="t3.1",
                    name=name,
                    measured={"side": side, "c": c, "excluded_side": excluded,
                              "identity_model_valid": True},
                    bound=None,
                    passed=excluded > side,
                    detail="identity minor model + excluded-grid threshold",
                )
            )
        if not decomposed:
            continue
        td = build_tree_decomposition(g, c)
        rep = check_tree_decomposition(g, td)
        if not rep.valid:
            raise InvariantViolationError(
                f"{name}: built decomposition invalid: {rep.first_failure}"
            )
        bound = treewidth_bound(c)
        rows = [("t1.1", "width", rep.width, bound)] if which in ("t1.1", "all") else []
        if which in ("t1.2", "all"):
            layout = _layout(g, td)
            verdict = check_stack_layout(g, layout)
            if not verdict.valid:
                raise InvariantViolationError(
                    f"{name}: heuristic layout invalid at {verdict.first_crossing}"
                )
            rows.append(("t1.2", "stacks", layout.k, bound + 1))
        reports.extend(
            TheoremReport(theorem=theorem, name=name,
                          measured={"n": g.n, "m": g.m, "c": c, key: value},
                          bound=Fraction(limit), passed=value <= limit)
            for theorem, key, value, limit in rows
        )
    reports.extend(grid_reports)
    if which in ("t5", "all"):
        reports.extend(_run_subdivision_suite())
    return reports


def _grid_side(g: Graph) -> Optional[int]:
    """The side q if g is grid(q) with q >= 2, else None.  A valid identity
    model puts all 2q(q-1) edges of grid(q) in g, and that edge count leaves
    room for no other edge, so the minor check recognises the grid."""
    q = math.isqrt(g.n)
    if (q * q == g.n and q >= 2 and g.m == 2 * q * (q - 1)
            and verify_grid_minor_model(g, grid_identity_model(q)).valid):
        return q
    return None


def identity_tree_embedding(tree: Graph) -> HostEmbedding:
    """Embed a tree into itself, rooted at node 0, with one copy per node."""
    return HostEmbedding(
        host_tree=tree, root=0, k=1,
        vertex_map={v: (v, 1) for v in range(tree.n)},
    )


def _run_subdivision_suite() -> List[TheoremReport]:
    """One row per subdivision: its theorem, name, record, growth bound and
    the bound as printed, the measured fields, and the values its record
    must show.  A row passes iff the record shows them and the bound holds."""

    def host(g: Graph):
        return subdivide_in_host(g, identity_tree_embedding(g), epsilon=1)

    def quadratic(r: int) -> Fraction:
        return Fraction(r * r + 3 * r + 1)

    rows = [
        # Two-vertex worked example: one edge stretched into a 5-vertex path.
        ("t5-host", "P2-in-P2", host(path(2)), lambda r: Fraction(2 * r + 1), "2r+1",
         ("result_n", "scale_table"), {"result_n": 5}),
        # Degree-3 tree in itself: certificate (k*Delta + eps)*r + 1 = 4r + 1.
        ("t5-host", "cbt7-in-itself", host(complete_binary_tree(7)),
         lambda r: Fraction(4 * r + 1), "4r+1", ("result_n",), {}),
        # Uniform superlinear subdivision of K_4 under r^2 + 3r + 1.
        ("t5-uniform", "K4-quadratic", subdivide_uniform_superlinear(complete(4), quadratic),
         quadratic, "r^2+3r+1", ("subdivisions", "result_n"),
         {"subdivisions": 20, "result_n": 124}),
    ]
    reports = []
    for theorem, name, rec, bound, printed, keys, expected in rows:
        fields = {"result_n": rec.result.n, "scale_table": rec.scale_table,
                  "subdivisions": rec.uniform_subdivisions}
        holds = verify_growth_bound(rec.result, bound).holds
        reports.append(TheoremReport(
            theorem=theorem, name=name, measured={k: fields[k] for k in keys}, bound=None,
            passed=all(fields[k] == v for k, v in expected.items()) and holds,
            detail=f"certificate f(r) <= {printed}",
        ))
    return reports


@dataclass(frozen=True)
class ExplorationRow:
    n: int
    seed: int
    growth_constant: Fraction
    treewidth: int


def cubic_ball_bound(n: int, r: int) -> int:
    """Vertex count reachable within distance r in a 3-regular graph."""
    return min(n, 3 * 2**r - 2)


def lower_bound_exploration(
    sizes: Sequence[int], seeds: Sequence[int]
) -> List[ExplorationRow]:
    """Measurement table for random cubic graphs: the 3-regular ball bound
    f(r) <= min(n, 3*2^r - 2) is asserted; growth constant and exact
    treewidth are reported for trend inspection, with no asymptotic claim.
    Every size is held to exact treewidth's budget before the first graph
    is drawn, so a size above it raises that CapacityError at once."""
    for n in sizes:
        _exact_treewidth_size(n)
    rows = []
    for n in sizes:
        for seed in seeds:
            g = random_cubic(n, seed)
            width, _ = exact_treewidth(g)
            c = growth_constant(g)
            verdict = verify_growth_bound(g, lambda r: cubic_ball_bound(n, r))
            if not verdict.holds:
                r, _ = verdict.first_violation
                raise InvariantViolationError(
                    f"cubic ball bound violated at n={n}, seed={seed}, r={r}"
                )
            rows.append(ExplorationRow(n=n, seed=seed, growth_constant=c, treewidth=width))
    return rows
