"""Acceptance gate: one test and one recorded pass/fail line per criterion.

Fixtures are seeded, so every run sees the same graphs, sources, and
randomness.  Statistical checks compare an empirical rate against its
guaranteed bound minus three sigma; exact checks carry no tolerance at
all (the generated weights live on a 1/16 grid, which keeps every path
sum bit-exact across independent computations; bottleneck labels are
single edge weights, so criterion 8 also runs continuous weights).
"""

import math
import random
import time

import numpy as np
from scipy.stats import binomtest

from conftest import edge_subgraph, record
from rtspan.cli import generate_graph
from rtspan.cover import CoverParams, recursive_cover, swrt_cover
from rtspan.estimate import estimate_ball_fractions
from rtspan.graph import (
    IN,
    OUT,
    UNREACHABLE,
    Graph,
    distance_matrix,
    sssp,
)
from rtspan.linfty import build_scales, linfty_merge_tree
from rtspan.partition import cluster
from rtspan.spanner import swrt_spanner
from rtspan.verify import (
    check_cover,
    check_stretch,
    oracle_linfty_matrix,
    oracle_round_trip_all_pairs,
    partition_probability_trial,
    stretch_bound,
)


def _dist_row(g, u, direction):
    d = sssp(g, None, u, direction).dist
    return np.array([math.inf if x is UNREACHABLE else x for x in d])


def test_c01_round_trip_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    for i in range(100):
        rng = random.Random(f"crit1:{i}")
        n = rng.randint(5, 50)
        m = min(n * (n - 1), rng.randint(n, 4 * n))
        g = generate_graph(n, m, rng, strongly_connected=i % 2 == 0)
        _, rt = oracle_round_trip_all_pairs(g)
        for u in range(n):
            row = _dist_row(g, u, OUT) + _dist_row(g, u, IN)
            if not np.array_equal(rt[u], row):
                mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 30.0
    record(f"criterion 1: {'PASS' if ok else 'FAIL'} - "
           f"100 graphs, {mismatches} mismatched rows, {dt:.1f}s (limit 30s)")
    assert mismatches == 0
    assert dt < 30.0


def test_c02_residual_size_bound():
    g = generate_graph(100, 400, random.Random("crit2:graph"),
                       strongly_connected=True)
    runs = 10_000
    bad = 0
    for i in range(runs):
        rng = random.Random(f"crit2:{i}")
        usz = rng.randint(1, 60)
        centers = rng.sample(range(100), usz)
        r = (0.5, 1.0, 2.0, 4.0)[i % 4]
        direction = OUT if i % 2 == 0 else IN
        p = cluster(g, None, centers, r, 16, direction=direction, rng=rng)
        if len(p.residual) > 100 - usz:
            bad += 1
    ok = bad == 0
    record(f"criterion 2: {'PASS' if ok else 'FAIL'} - "
           f"residual bound held in {runs - bad}/{runs} cluster runs")
    assert bad == 0


def test_c03_cluster_radius_tail():
    t0 = time.perf_counter()
    g = generate_graph(100, 400, random.Random("crit3:graph"),
                       strongly_connected=True)
    runs = 10_000
    r = 2.0
    s = 16
    exceed = {2: 0, 3: 0}
    for i in range(runs):
        rng = random.Random(f"crit3:{i}")
        centers = rng.sample(range(100), 40)
        p = cluster(g, None, centers, r, s, rng=rng)
        worst = max((c.reach for c in p.clusters), default=0.0)
        for c_exp in (2, 3):
            if worst > c_exp * r:
                exceed[c_exp] += 1
    dt = time.perf_counter() - t0
    ok = dt < 120.0
    details = []
    for c_exp in (2, 3):
        bound = 100 / s ** c_exp
        sigma = math.sqrt(bound * (1 - bound) / runs)
        rate = exceed[c_exp] / runs
        ok = ok and rate <= bound + 3 * sigma
        details.append(f"c={c_exp}: rate {rate:.4f} <= {bound + 3 * sigma:.4f}")
    record(f"criterion 3: {'PASS' if ok else 'FAIL'} - "
           f"{'; '.join(details)}, {dt:.1f}s (limit 120s)")
    assert ok, (exceed, dt)


def test_c04_co_clustering_probability():
    g = Graph(10, [(i, (i + 1) % 10, 1.0) for i in range(10)])
    fixtures = [
        (2, 10.0, (0, 3)),
        (2, 5.0, (0, 3)),
        (3, 10.0, (0, 3)),
        (4, 20.0, (0, 3)),
        (4, 10.0, (0, 5)),
    ]
    reports = []
    for j, (s, r, pair) in enumerate(fixtures):
        rep = partition_probability_trial(g, pair, list(range(10)), r, s, OUT,
                                          10_000, random.Random(f"crit4:{j}"))
        reports.append((s, r, pair, rep))
    ok = all(rep.passed for _, _, _, rep in reports)
    worst = min(reports, key=lambda t: t[3].rate - (t[3].bound - 3 * t[3].sigma))
    record(f"criterion 4: {'PASS' if ok else 'FAIL'} - 5 fixtures x 10^4 trials; "
           f"tightest: s={worst[0]} r={worst[1]} rate {worst[3].rate:.4f} "
           f"vs floor {worst[3].bound - 3 * worst[3].sigma:.4f}")
    for s, r, pair, rep in reports:
        assert rep.passed, (s, r, pair, rep.rate, rep.bound)


def test_c05_estimation_accuracy():
    t0 = time.perf_counter()
    g = generate_graph(256, 1024, random.Random("crit5:graph"),
                       strongly_connected=True)
    d_out = distance_matrix(g, None, sources=range(256), direction=OUT)
    finite = d_out[np.isfinite(d_out) & (d_out > 0)]
    r = float(np.percentile(finite, 25))
    eps = 0.125
    exact_out = (d_out <= r).sum(axis=1) / 256.0
    exact_in = (d_out <= r).sum(axis=0) / 256.0
    good = 0
    for i in range(100):
        est = estimate_ball_fractions(g, None, r, eps, random.Random(f"crit5:{i}"))
        if all(abs(est.f_out(u) - exact_out[u]) <= eps
               and abs(est.f_in(u) - exact_in[u]) <= eps for u in range(256)):
            good += 1
    dt = time.perf_counter() - t0
    ok = good >= 99 and dt < 60.0
    record(f"criterion 5: {'PASS' if ok else 'FAIL'} - "
           f"{good}/100 runs within eps for all 256 vertices, "
           f"{dt:.1f}s (limit 60s)")
    assert good >= 99
    assert dt < 60.0


def test_c06_cover_membership_and_radius():
    t0 = time.perf_counter()
    cells = [(s, k) for s in (1, 4, 16) for k in (2, 3)]
    cell_pass = {}
    radius_violations = 0
    failure_exits = 0
    for s, k in cells:
        passed = 0
        for seed in range(50):
            tag = f"crit6:{s}:{k}:{seed}"
            g = generate_graph(100, 400, random.Random(tag + ":gen"),
                               strongly_connected=True)
            _, rt = oracle_round_trip_all_pairs(g)
            off = rt[~np.eye(100, dtype=bool)]
            R = float(np.percentile(off, 25))
            sources = random.Random(tag + ":src").sample(range(100), s)
            cov = swrt_cover(g, k, R, sources, rng=random.Random(tag + ":cover"))
            rep = check_cover(g, cov, sources)
            if rep.passed:
                passed += 1
            failure_exits += len(cov.failure_parts)
            if not cov.failure_parts and rep.max_ball_radius > rep.radius_bound:
                radius_violations += 1
        cell_pass[(s, k)] = passed
    dt = time.perf_counter() - t0
    ok = (all(p >= 48 for p in cell_pass.values())
          and radius_violations == 0 and failure_exits == 0)
    cells_txt = ", ".join(f"s={s},k={k}: {p}/50" for (s, k), p in cell_pass.items())
    record(f"criterion 6: {'PASS' if ok else 'FAIL'} - membership {cells_txt}; "
           f"{radius_violations} radius violations, {failure_exits} failure exits, "
           f"{dt:.0f}s")
    assert all(p >= 48 for p in cell_pass.values()), cell_pass
    assert radius_violations == 0
    assert failure_exits == 0


def test_c07_per_run_disjointness():
    overlaps = 0
    runs = 100
    for i in range(runs):
        rng = random.Random(f"crit7:{i}")
        n = rng.randint(10, 40)
        m = min(n * (n - 1), rng.randint(n, 4 * n))
        g = generate_graph(n, m, rng, strongly_connected=i % 2 == 0)
        S = rng.sample(range(n), rng.randint(1, max(1, n // 3)))
        r = (0.25, 0.5, 1.0, 2.0)[i % 4]
        cov = recursive_cover(g, r, S, rng=rng)
        parts = [b.members for b in cov.balls] + list(cov.failure_parts)
        total = sum(len(p) for p in parts)
        union = set().union(*parts) if parts else set()
        if len(union) != total:
            overlaps += 1
    ok = overlaps == 0
    record(f"criterion 7: {'PASS' if ok else 'FAIL'} - "
           f"{runs - overlaps}/{runs} recursion runs carved disjoint parts")
    assert overlaps == 0


def _c08_graphs():
    """(rng, graph) pairs: 1/16-grid weights, where many merges share a
    weight; continuous weights, one merge per weight; and grid-weight
    multigraphs with self-loops and parallel edges mixed into the edge
    order."""
    for i in range(100):
        rng = random.Random(f"crit8:{i}")
        n = rng.randint(4, 100)
        m = min(n * (n - 1), rng.randint(n, 4 * n))
        yield rng, generate_graph(n, m, rng, strongly_connected=i % 2 == 0)
    for i in range(40):
        rng = random.Random(f"crit8:continuous:{i}")
        n = rng.randint(4, 100)
        m = min(n * (n - 1), rng.randint(n, 4 * n))
        yield rng, generate_graph(n, m, rng, w_min=1.0, w_max=1000.0,
                                  strongly_connected=i % 2 == 0, quantum=0)
    for i in range(40):
        rng = random.Random(f"crit8:multigraph:{i}")
        n = rng.randint(2, 60)
        m = min(n * (n - 1), rng.randint(n, 3 * n))
        base = generate_graph(n, m, rng, strongly_connected=i % 2 == 0)
        edges = list(base.edges)
        for _ in range(rng.randint(1, n)):
            u = rng.randrange(n)
            edges.append((u, u, rng.randint(16, 32) / 16))
        for _ in range(rng.randint(1, m)):
            u, v, w = base.edges[rng.randrange(m)]
            edges.append((u, v, w if rng.random() < 0.5 else rng.randint(16, 32) / 16))
        rng.shuffle(edges)
        yield rng, Graph(n, edges)


def test_c08_bottleneck_distance_correctness():
    t0 = time.perf_counter()
    graphs = 0
    lca_bad = 0
    size_bad = 0
    preserve_bad = 0
    for rng, g in _c08_graphs():
        graphs += 1
        n = g.n
        tree, h1 = linfty_merge_tree(g)
        mat = oracle_linfty_matrix(g)
        for u in range(n):
            for v in range(n):
                d = tree.distance(u, v)
                want = mat[u, v]
                got = math.inf if d is UNREACHABLE else d
                if got != want:
                    lca_bad += 1
        if len(h1) > 4 * n:
            size_bad += 1
        sub_tree, _ = linfty_merge_tree(edge_subgraph(g, h1))
        for _ in range(100):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if sub_tree.distance(u, v) != tree.distance(u, v):
                preserve_bad += 1
    dt = time.perf_counter() - t0
    ok = lca_bad == 0 and size_bad == 0 and preserve_bad == 0
    record(f"criterion 8: {'PASS' if ok else 'FAIL'} - {graphs} graphs: "
           f"{lca_bad} label mismatches, {size_bad} oversize certificates, "
           f"{preserve_bad} unpreserved pairs, {dt:.0f}s")
    assert (lca_bad, size_bad, preserve_bad) == (0, 0, 0)


def test_c09_contraction_bookkeeping():
    count_bad = 0
    slot_bad = 0
    graphs = 30
    for i in range(graphs):
        rng = random.Random(f"crit9:{i}")
        n = rng.randint(8, 100)
        m = min(n * (n - 1), rng.randint(n, 4 * n))
        g = generate_graph(n, m, rng, strongly_connected=i % 2 == 0)
        tree, _ = linfty_merge_tree(g)
        bundles = build_scales(g, range(n), tree)
        per_edge = {}
        for b in bundles:
            for eidx in b.edge_map:
                per_edge[eidx] = per_edge.get(eidx, 0) + 1
        if per_edge and max(per_edge.values()) >= math.log2(n) + 1:
            count_bad += 1
        if sum(b.graph.m for b in bundles) > g.m * math.ceil(math.log2(n)):
            slot_bad += 1
    ok = count_bad == 0 and slot_bad == 0
    record(f"criterion 9: {'PASS' if ok else 'FAIL'} - {graphs} graphs: "
           f"{count_bad} per-edge scale-count breaches, {slot_bad} slot-total breaches")
    assert (count_bad, slot_bad) == (0, 0)


def test_c10_end_to_end_stretch():
    t0 = time.perf_counter()
    bound = stretch_bound(2, 100, 4)
    membership_misses = []
    stretch_failures = []
    not_subgraph = []
    worst_ratio = 0.0
    for seed in range(50):
        tag = f"crit10:{seed}"
        g = generate_graph(100, 400, random.Random(tag + ":gen"),
                           strongly_connected=True)
        sources = random.Random(tag + ":src").sample(range(100), 4)
        res = swrt_spanner(g, 2, sources, rng=random.Random(tag + ":spanner"))
        if not all(0 <= e < g.m for e in res.edges):
            not_subgraph.append(seed)
            continue
        rep = check_stretch(g, res.edges, sources, bound)
        if rep.infinite_violations:
            # a missed pair means the cover's membership failed for this
            # seed; the stretch bound only binds where membership held
            membership_misses.append(seed)
            continue
        if not rep.passed:
            stretch_failures.append(seed)
        worst_ratio = max(worst_ratio, rep.worst_ratio)

    cyc = Graph(100, [(i, (i + 1) % 100, 1.0) for i in range(100)])
    cyc_res = swrt_spanner(cyc, 2, [0, 17, 54, 80], rng=random.Random("crit10:cyc"))
    cycle_ok = cyc_res.edges == tuple(range(100))
    dag = Graph(100, [(i, i + 1, 1.0) for i in range(99)])
    dag_res = swrt_spanner(dag, 2, [0, 17, 54, 80], rng=random.Random("crit10:dag"))
    dag_ok = dag_res.edges == ()

    dt = time.perf_counter() - t0
    ok = (not not_subgraph and not stretch_failures and cycle_ok and dag_ok)
    record(f"criterion 10: {'PASS' if ok else 'FAIL'} - 50 seeds: "
           f"worst stretch {worst_ratio:.2f} vs bound {bound:.1f}, "
           f"{len(membership_misses)} membership misses, "
           f"{len(stretch_failures)} stretch failures; "
           f"cycle {'exact' if cycle_ok else 'WRONG'}, "
           f"DAG {'exact' if dag_ok else 'WRONG'}, {dt:.0f}s")
    assert not_subgraph == []
    assert stretch_failures == []
    assert cycle_ok and dag_ok


def test_c11_size_trend_in_source_count():
    t0 = time.perf_counter()
    sizes = {32: [], 8: [], 2: []}
    for seed in range(20):
        tag = f"crit11:{seed}"
        g = generate_graph(32, 128, random.Random(tag + ":gen"),
                           strongly_connected=True)
        for s in (32, 8, 2):
            src = sorted(random.Random(f"{tag}:src:{s}").sample(range(32), s))
            res = swrt_spanner(g, 2, src, rng=random.Random(f"{tag}:spanner:{s}"))
            sizes[s].append(len(res.edges))
    verdicts = []
    significant_reversal = False
    for hi, lo in ((32, 8), (8, 2)):
        shrank = sum(1 for a, b in zip(sizes[hi], sizes[lo]) if b < a)
        grew = sum(1 for a, b in zip(sizes[hi], sizes[lo]) if b > a)
        n_eff = shrank + grew
        p_rev = (binomtest(grew, n_eff, 0.5, alternative="greater").pvalue
                 if n_eff else 1.0)
        if p_rev < 0.05:
            significant_reversal = True
        verdicts.append(f"s {hi}->{lo}: {shrank} shrank/{grew} grew, "
                        f"reversal p={p_rev:.3f}")
    dt = time.perf_counter() - t0
    means = {s: sum(v) / len(v) for s, v in sizes.items()}
    ok = not significant_reversal
    record(f"criterion 11: {'PASS' if ok else 'FAIL'} - mean edges "
           f"{means[32]:.0f}/{means[8]:.0f}/{means[2]:.0f} at s=32/8/2; "
           f"{'; '.join(verdicts)}, {dt:.0f}s")
    assert not significant_reversal
