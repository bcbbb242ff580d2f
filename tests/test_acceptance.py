"""Acceptance gate: one test per shipped guarantee, each printing a single
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time
from fractions import Fraction

import pytest

import growthtw.decomposition as decomposition_mod
import growthtw.separators as separators_mod
from growthtw.constructions import (
    HostEmbedding,
    contract_minor_map,
    expand_to_degree3,
    host_subdivision_plan,
    subdivide_in_host,
    subdivide_uniform_superlinear,
)
from growthtw.decomposition import (
    check_tree_decomposition,
    exact_treewidth,
    grid_identity_model,
    verify_grid_minor_model,
)
from growthtw.errors import PreconditionError
from growthtw.generators import (
    complete,
    complete_binary_tree,
    cycle,
    grid,
    path,
    random_cubic,
    star,
    strong_product,
)
from growthtw.graphs import Graph, components
from growthtw.growth import (
    BRUTE_FORCE_VERTEX_BUDGET,
    brute_force_growth,
    growth_constant,
    growth_profile,
)
from growthtw.harness import (
    cubic_ball_bound,
    default_corpus,
    random_tree,
    run_theorem_suite,
)
from growthtw.separators import (
    bfs_layer_separation,
    check_separation,
    iteration_cap,
    two_thirds_separation,
)
from growthtw.stacklayout import StackLayout, check_stack_layout, exact_stack_number
from test_growth import random_small_graph
from test_stacklayout import unpruned_stack_number


def report(number, title, passed, extra=""):
    status = "PASS" if passed else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"[{status}] criterion {number:02d}: {title}{tail}")
    assert passed, f"criterion {number} failed{tail}"


def test_criterion_01_growth_definition_equivalence():
    start = time.monotonic()
    graphs = []
    rng = random.Random(2024)
    for _ in range(200):
        graphs.append(random_small_graph(rng))
    graphs += [path(k) for k in range(1, 9)]
    graphs += [cycle(k) for k in range(3, 9)]
    graphs += [star(k) for k in range(2, 9)]
    graphs += [complete(k) for k in range(2, 9)]
    graphs += [complete_binary_tree(k) for k in range(1, 9)]
    graphs.append(grid(2))
    ok = True
    for g in graphs:
        profile = growth_profile(g, g.n)
        for r in range(1, g.n + 1):
            if profile.f(r) != brute_force_growth(g, r):
                ok = False
                break
        if not ok:
            break
    elapsed = time.monotonic() - start
    report(1, "ball-based growth equals exhaustive-subgraph growth",
           ok and elapsed < 120, f"{len(graphs)} graphs, {elapsed:.1f}s")


def test_criterion_02_triple_product_growth():
    g = strong_product(strong_product(path(5), path(5)), path(5))
    profile = growth_profile(g, 2)
    report(2, "triple path product grows as (2r+1)^3 at r=1,2",
           profile.f(1) == 27 and profile.f(2) == 125)


def test_criterion_03_layer_split_guarantees_on_corpus():
    start = time.monotonic()
    ok = True
    checked = 0
    for name, g in default_corpus():
        c = growth_constant(g)
        alpha = 1 - Fraction(1, 4 * c)
        comps = [frozenset(comp) for comp in components(g)]
        for comp in comps:
            if len(comp) < 2:
                continue
            sep, layering = bfs_layer_separation(g, comp, c)
            rep = check_separation(g, comp, sep, alpha)
            checked += 1
            if not (rep.valid and sep.order < 2 * c
                    and rep.exclusive_ratio <= alpha
                    and 2 * (layering.p - len(layering.thin)) <= layering.p):
                ok = False
        if not ok:
            break
    elapsed = time.monotonic() - start
    report(3, "layer splits: order < 2c, exclusive sides <= (1-1/4c)n, "
              "thick layers <= half the depth",
           ok and elapsed < 300, f"{checked} splits, {elapsed:.1f}s")


def test_criterion_04_rebalancing_terminates_within_cap(monkeypatch):
    assert iteration_cap(Fraction(11, 12)) == 5
    step_orders = []

    def recording(g, Y, c):
        sep, layering = bfs_layer_separation(g, Y, c)
        step_orders.append(sep.order)
        return sep, layering

    monkeypatch.setattr(separators_mod, "bfs_layer_separation", recording)
    ok = True
    for name in ["path-50", "cycle-50", "star-40", "cbt-63", "grid-8",
                 "random-tree-200", "cubic-100"]:
        g = dict(default_corpus())[name]
        c = growth_constant(g)
        alpha = max(Fraction(2, 3), 1 - Fraction(1, 4 * c))
        step_orders.clear()
        sep, calls = two_thirds_separation(g, None, c)
        balanced = 3 * max(*sep.exclusive_sides) <= 2 * g.n
        if not (calls <= iteration_cap(alpha)
                and balanced
                and check_separation(g, None, sep, Fraction(2, 3)).valid
                and len(step_orders) == calls
                and sep.order <= calls * max(step_orders)):
            ok = False
    report(4, "rebalancing: call count within the exact cap, 2/3-balanced, "
              "order <= rounds x max step order", ok)


def test_criterion_05_width_bound_on_corpus():
    start = time.monotonic()
    reports = run_theorem_suite(default_corpus(), "t1.1")
    elapsed = time.monotonic() - start
    report(5, "built decompositions valid with width <= floor(49c^2+30c) "
              "across the corpus",
           bool(reports) and all(r.passed for r in reports) and elapsed < 600,
           f"{len(reports)} graphs, {elapsed:.1f}s")


def test_criterion_06_exact_treewidth_oracle():
    start = time.monotonic()
    cases = [(grid(k), k) for k in (2, 3, 4)]
    cases += [(t, 1) for t in (path(10), star(10), complete_binary_tree(15),
                               random_tree(16, seed=5))]
    cases += [(complete(k), k - 1) for k in range(2, 9)]
    ok = True
    for g, expected in cases:
        width, witness = exact_treewidth(g)
        rep = check_tree_decomposition(g, witness)
        if not (width == expected and rep.valid and rep.width == width):
            ok = False
    elapsed = time.monotonic() - start
    report(6, "exact treewidth matches known values with valid witnesses",
           ok and elapsed < 180, f"{len(cases)} cases, {elapsed:.1f}s")


def test_criterion_07_grid_self_consistency():
    ok = True
    for k in range(2, 7):
        g = grid(k)
        c = growth_constant(g)
        if not (verify_grid_minor_model(g, grid_identity_model(k)).valid
                and math.ceil(2 * c) > k):
            ok = False
    report(7, "grids: identity minor model validates and ceil(2c) exceeds the side", ok)


def test_criterion_08_stack_layouts():
    start = time.monotonic()
    k4 = complete(4)
    single = StackLayout(order=(0, 1, 2, 3),
                         assignment={e: 1 for e in k4.edges()}, k=1)
    rejects = not check_stack_layout(k4, single).valid
    split = dict(single.assignment)
    split[(1, 3)] = 2
    accepts = check_stack_layout(
        k4, StackLayout(order=(0, 1, 2, 3), assignment=split, k=2)
    ).valid

    expected = [(complete_binary_tree(7), 1), (cycle(6), 1),
                (complete(4), 2), (complete(5), 3), (complete(6), 3)]
    exact_ok = True
    for g, want in expected:
        k, layout = exact_stack_number(g)
        if not (k == want and check_stack_layout(g, layout).valid
                and k == unpruned_stack_number(g)):
            exact_ok = False

    reports = run_theorem_suite(default_corpus(), "t1.2")
    harness_ok = bool(reports) and all(r.passed for r in reports)
    elapsed = time.monotonic() - start
    report(8, "stack layouts: checker verdicts, exact values cross-checked "
              "unpruned, corpus bound holds",
           rejects and accepts and exact_ok and harness_ok and elapsed < 600,
           f"{elapsed:.1f}s")


def test_criterion_09_uniform_subdivision():
    rec = subdivide_uniform_superlinear(
        complete(4), lambda r: Fraction(r * r + 3 * r + 1)
    )
    profile = growth_profile(rec.result, rec.result.n)
    within = all(
        profile.f(r) <= r * r + 3 * r + 1 for r in range(1, rec.result.n + 1)
    )
    named = False
    try:
        subdivide_uniform_superlinear(complete(4), lambda r: Fraction(2 * r))
    except PreconditionError as exc:
        named = "f(1)" in str(exc)
    report(9, "uniform subdivision: K_4 under r^2+3r+1 gives 20 cuts per edge "
              "and 124 vertices within the bound; linear bound fails at r=1",
           rec.uniform_subdivisions == 20 and rec.result.n == 124
           and within and named)


def test_criterion_10_host_subdivision():
    g = path(2)
    emb = HostEmbedding(host_tree=g, root=0, k=1,
                        vertex_map={0: (0, 1), 1: (1, 1)})
    rec = subdivide_in_host(g, emb, 1)
    profile = growth_profile(rec.result, rec.result.n)
    certificate = all(
        profile.f(r) <= 2 * r + 1 for r in range(1, rec.result.n + 1)
    )
    shape_ok = rec.result.n == 5 and rec.result == Graph(
        5, [(0, 2), (2, 3), (3, 4), (4, 1)]
    )

    rng = random.Random(77)
    inequality_ok = True
    instances = 0
    while instances < 20:
        tree = complete_binary_tree(rng.randint(2, 7))
        k = rng.randint(1, 3)
        slots = [(node, copy) for node in range(tree.n)
                 for copy in range(1, k + 1)]
        rng.shuffle(slots)
        gn = rng.randint(2, len(slots))
        vmap = {v: slots[v] for v in range(gn)}
        edges = []
        for u in range(gn):
            for v in range(u + 1, gn):
                nu, nv = vmap[u][0], vmap[v][0]
                if (nu == nv or tree.has_edge(nu, nv)) and rng.random() < 0.6:
                    edges.append((u, v))
        if not edges:
            continue
        instances += 1
        host = HostEmbedding(host_tree=tree, root=0, k=k, vertex_map=vmap)
        eps = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        _, ell, scale, _, _ = host_subdivision_plan(Graph(gn, edges), host, eps)
        for i in range(tree.n):
            if eps * scale[i] < 2 * scale[i + 1] * ell[i] + gn:
                inequality_ok = False
    report(10, "host subdivision: two-vertex example stretches to a 5-path "
               "with certificate 2r+1; scale-table inequality holds on 20 "
               "random instances",
           shape_ok and certificate and inequality_ok)


def test_criterion_11_degree3_expansion():
    small = [(name, g) for name, g in default_corpus() if g.n <= 10]
    ok = True
    checked = []
    # The expanded clique has 20 vertices; the exact solver's refusal
    # threshold is raised locally, which leaves the computation exact.
    saved = decomposition_mod.EXACT_TREEWIDTH_VERTEX_BUDGET
    decomposition_mod.EXACT_TREEWIDTH_VERTEX_BUDGET = 20
    try:
        for name, g in small:
            h, minor_map = expand_to_degree3(g)
            tw_g, _ = exact_treewidth(g)
            tw_h, _ = exact_treewidth(h)
            checked.append(name)
            if not (h.max_degree() <= 3
                    and contract_minor_map(h, minor_map) == g
                    and tw_h <= tw_g + 1):
                ok = False
    finally:
        decomposition_mod.EXACT_TREEWIDTH_VERTEX_BUDGET = saved
    report(11, "degree-3 expansion: max degree 3, exact contraction round "
               "trip, treewidth grows by at most one",
           ok and len(checked) >= 4, ",".join(checked))


def _ball_sizes(g):
    """sizes[v][r] = |B_r(v)| for r in [0, n], by a level-by-level BFS written
    here so that the check below shares no code with growthtw.growth."""
    sizes = []
    for v in range(g.n):
        seen = {v}
        frontier = [v]
        row = [1]
        for _ in range(g.n):
            nxt = []
            for u in frontier:
                for w in g.adj[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
            row.append(len(seen))
        sizes.append(row)
    return sizes


def test_criterion_12_cubic_growth_constant_claim():
    """Sampled random cubic graphs: growth_constant equals the exact value
    max_v max_{1<=r<=n} |B_r(v)|/r of an independent BFS, equals the
    exhaustive-subgraph maximum max_r f(r)/r where brute force is in budget,
    and lies in [4, max_r min(n, 3*2^r - 2)/r], the bounds 3-regularity gives.

    The claim c <= 4 is false for cubic graphs.  Every closed neighbourhood
    has 4 vertices, so f(1) = 4 and c >= 4.  A vertex v on no triangle and no
    4-cycle has 3 distinct neighbours and 6 distinct vertices at distance 2,
    so |B_2(v)| = 10 and c >= f(2)/2 = 5; random cubic graphs have such
    vertices almost everywhere.  For each sample with c > 4 the table records
    a witness ball B_r(v) with |B_r(v)| > 4r at the radius where growth.py
    says f(r)/r peaks, re-measured by the BFS here."""
    rows = []
    ok = True
    for n in (10, 12, 14, 16, 18):
        for seed in (1, 2, 3):
            g = random_cubic(n, seed)
            c = growth_constant(g)
            sizes = _ball_sizes(g)
            exact = max(Fraction(sizes[v][r], r)
                        for v in range(g.n) for r in range(1, g.n + 1))
            upper = max(Fraction(cubic_ball_bound(n, r), r)
                        for r in range(1, n + 1))
            row = f"n={n},seed={seed},c={c}"
            ok = ok and c == exact and 4 <= c <= upper
            if g.n <= BRUTE_FORCE_VERTEX_BUDGET:
                brute = max(Fraction(brute_force_growth(g, r), r)
                            for r in range(1, g.n + 1))
                ok = ok and c == brute
                row += f",brute={brute}"
            if c > 4:
                profile = growth_profile(g, g.n)
                r = profile.argmax_radius
                witness = next((v for v in range(g.n)
                                if sizes[v][r] == profile.f(r)), None)
                ok = ok and witness is not None and sizes[witness][r] > 4 * r
                if witness is not None:
                    row += f",witness=(v={witness},r={r},|B|={sizes[witness][r]})"
            rows.append(row)
    report(12, "sampled random cubic graphs: growth constant equals the "
               "independent BFS and brute-force maxima, 4 <= c <= "
               "max_r min(n, 3*2^r - 2)/r, and c > 4 has a witness ball",
           ok, "; ".join(rows))
