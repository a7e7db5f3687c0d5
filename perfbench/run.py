"""rtspan benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload spanner-grid --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the library is imported from ./src.  With
--trace 0 the run builds a fixed number of seeded instances round-robin
for --seconds and reports end-to-end metrics; with --trace 1 it alternates
untraced and traced builds of the first instance and reports per-layer
self times and counters.  Every build's output is checked.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import dijkstra

from tracer import Tracer, self_times
from workloads import WORKLOADS, make_input

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# Distinct seeded graphs per run; quality metrics average over them, and
# the timing samples mix them, so more instances make a run's figures
# depend less on which graphs its seed drew.  The workload sizes keep a
# build to a few seconds, so that a run holds about ten of them.
INSTANCES = 4
# Set-up and verify take milliseconds, far less than the speed swings of a
# shared machine, which flips between a fast and a slow state every second
# or so.  Each of their samples therefore averages back-to-back calls over
# at least BATCH_S, and one sample is taken at every build so that the
# samples spread over the whole run.  A run reports the mean of its timing
# samples, with the median and tail printed beside it: the samples fall
# into a fast and a slow cluster, and a median jumps between the two as
# their shares cross one half, while the mean moves only with the shares.
BATCH_S = 0.5
LABEL_PAIRS = 32  # sampled bottleneck labels checked per build

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "verify_s": "s",
    "spanner_edges": "count",
    "edges_over_spt": "ratio",
    "mean_stretch": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span name, counter; "s" is the span's self time)
PER_LAYER = {
    "graph.distance_matrix.s": ("graph.distance_matrix", "s"),
    "graph.distance_matrix.calls": ("graph.distance_matrix", "calls"),
    "graph.distance_matrix.rows": ("graph.distance_matrix", "rows"),
    "graph.distance_matrix.cells": ("graph.distance_matrix", "cells"),
    "graph.round_trip_ball.s": ("graph.round_trip_ball", "s"),
    "graph.round_trip_ball.calls": ("graph.round_trip_ball", "calls"),
    "graph.round_trip_ball.members": ("graph.round_trip_ball", "members"),
    "graph.parse_edge_list.s": ("graph.parse_edge_list", "s"),
    "estimate.s": ("estimate", "s"),
    "estimate.calls": ("estimate", "calls"),
    "estimate.samples": ("estimate", "samples"),
    "estimate.working_set": ("estimate", "working_set"),
    "cover.swrt_cover.s": ("cover.swrt_cover", "s"),
    "cover.swrt_cover.calls": ("cover.swrt_cover", "calls"),
    "cover.swrt_cover.trials": ("cover.swrt_cover", "trials"),
    "cover.recursive_cover.s": ("cover.recursive_cover", "s"),
    "cover.balls": ("cover.swrt_cover", "balls"),
    "cover.distinct_balls": ("cover.swrt_cover", "distinct_balls"),
    "cover.failure_parts": ("cover.swrt_cover", "failure_parts"),
    "cover.max_depth": ("cover.swrt_cover", "max_depth"),
    "partition.cluster.s": ("partition.cluster", "s"),
    "partition.cluster.calls": ("partition.cluster", "calls"),
    "partition.cluster.clusters": ("partition.cluster", "clusters"),
    "partition.cluster.residual": ("partition.cluster", "residual"),
    "linfty.merge_tree.s": ("linfty.merge_tree", "s"),
    "linfty.merge_tree.merge_nodes": ("linfty.merge_tree", "merge_nodes"),
    "linfty.merge_tree.certificate_edges": ("linfty.merge_tree", "certificate_edges"),
    "linfty.build_scales.s": ("linfty.build_scales", "s"),
    "linfty.contract.s": ("linfty.contract", "s"),
    "linfty.contract.calls": ("linfty.contract", "calls"),
    "linfty.scales": ("linfty.build_scales", "scales"),
    "linfty.distinct_windows": ("linfty.build_scales", "distinct_windows"),
    "linfty.window_n_sum": ("linfty.build_scales", "window_n_sum"),
    "linfty.window_m_sum": ("linfty.build_scales", "window_m_sum"),
    "spanner.swrt_spanner.s": ("spanner.swrt_spanner", "s"),
    "spanner.scales_covered": ("spanner.swrt_spanner", "scales_covered"),
    "spanner.scales_skipped": ("spanner.swrt_spanner", "scales_skipped"),
    "verify.check_stretch.s": ("verify.check_stretch", "s"),
    "verify.check_stretch.calls": ("verify.check_stretch", "calls"),
    "verify.qualifying_pairs": ("verify.check_stretch", "qualifying_pairs"),
}

# ratio metric -> (numerator, base), both per-layer metrics above
LAYER_RATIOS = {
    "estimate.samples_per_vertex": ("estimate.samples", "estimate.working_set"),
    "cover.distinct_ball_ratio": ("cover.distinct_balls", "cover.balls"),
}

TRACE_TIMES = ("trace.build_s", "trace.untraced_build_s", "trace.overhead_s")


def load_library(root=ROOT):
    """Import rtspan from root/src and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import rtspan
    import rtspan.graph
    import rtspan.linfty
    import rtspan.spanner
    import rtspan.verify

    if src not in Path(rtspan.__file__).resolve().parents:
        raise ImportError(f"rtspan imported from {rtspan.__file__}, not {src}")
    return rtspan


@dataclass
class Instance:
    """One seeded input: its text, and after set-up its graph and sources."""

    workload: object
    seed: int
    index: int
    text: str
    graph: object = None
    sources: list = field(default_factory=list)
    digest: str | None = None
    quality: dict | None = None
    worst_ratio: float | None = None  # from check_stretch, spanner workloads only

    def tag(self, what):
        return f"{self.seed}:{self.workload.name}:{self.index}:{what}"


def setup(lib, inst):
    """Parse the edge-list text and resolve the sources; the timed set-up."""
    g = lib.graph.parse_edge_list(inst.text)
    inst.graph = g
    inst.sources = sorted(random.Random(inst.tag("sources")).sample(range(g.n), inst.workload.sources))


def build(lib, inst):
    """One build; returns (output edge ids, certificate edge ids, aux)."""
    w, g = inst.workload, inst.graph
    if w.kind == "spanner":
        res = lib.spanner.swrt_spanner(g, w.k, inst.sources, rng=random.Random(inst.tag("build")))
        cert = tuple(sorted(e for e, tag in res.provenance.items() if tag == "bottleneck"))
        return res.edges, cert, res
    tree, h1 = lib.linfty.linfty_merge_tree(g)
    lib.linfty.build_scales(g, inst.sources, tree)
    h1 = tuple(sorted(h1))
    return h1, h1, tree


def verify(lib, inst, edges, aux):
    """The output check a user would run; returns a list of failures."""
    w, g = inst.workload, inst.graph
    if w.kind == "spanner":
        bound = lib.verify.stretch_bound(w.k, g.n, lib.CoverParams().c)
        rep = lib.verify.check_stretch(g, edges, inst.sources, bound)
        inst.worst_ratio = rep.worst_ratio
        return [] if rep.passed else [f"stretch check failed: {rep}"]
    return check_labels(lib, inst, edges, aux)


def check_labels(lib, inst, h1, tree):
    """Certificate size <= 4n, and LABEL_PAIRS sampled merge-tree labels
    agree with the library's strong components of G: joined at the label,
    apart at the next lower weight, and joined at the label inside the
    certificate too."""
    g = inst.graph
    fails = []
    if len(h1) > 4 * g.n:
        fails.append(f"certificate has {len(h1)} > 4n edges")
    scc = lib.verify._scc_labels
    cert_graph = lib.graph.Graph(g.n, [g.edges[i] for i in h1])
    weights = sorted({w for _, _, w in g.edges})
    rng = random.Random(inst.tag("pairs"))
    for _ in range(LABEL_PAIRS):
        a, b = rng.sample(range(g.n), 2)
        d = tree.distance(a, b)  # finite: every workload graph is strongly connected
        lower = bisect.bisect_left(weights, d) - 1
        at = scc(g, d)
        below = scc(g, weights[lower] if lower >= 0 else -math.inf)
        cert = scc(cert_graph, d)
        if at[a] != at[b] or below[a] == below[b] or cert[a] != cert[b]:
            fails.append(f"pair {a},{b} label {d} disagrees with strong components")
    return fails


def round_trip_rows(lib, g, sources, edge_ids=None):
    """Round-trip distances from each source, by scipy Dijkstra."""
    sub = g if edge_ids is None else lib.graph.Graph(g.n, [g.edges[i] for i in edge_ids])
    mat = sub.weight_csr()
    out = dijkstra(mat, directed=True, indices=sources)
    back = dijkstra(mat.T.tocsr(), directed=True, indices=sources)
    return np.atleast_2d(out + back)


def spt_union(lib, g, sources):
    """Edges of one shortest-path out-tree and in-tree per source."""
    edges = set()
    for s in sources:
        for direction in (lib.graph.OUT, lib.graph.IN):
            dv = lib.graph.sssp(g, None, s, direction)
            edges.update(e for e in dv.parent_edge if e is not None)
    return len(edges)


def quality(lib, inst, edges):
    """Size against the SPT-union baseline and round-trip stretch from
    the sources, for one build's output."""
    g = inst.graph
    full = round_trip_rows(lib, g, inst.sources)
    sub = round_trip_rows(lib, g, inst.sources, edges)
    qual = np.isfinite(full) & (full > 0)
    ratio = sub[qual] / full[qual]
    return {
        "edges": len(edges),
        "spt_edges": spt_union(lib, g, inst.sources),
        "mean_stretch": float(ratio.mean()),
        "worst_stretch": float(ratio.max()),
    }


def digest(edges, cert):
    return hashlib.sha256(f"{list(edges)}|{list(cert)}".encode()).hexdigest()[:16]


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None with ten samples or fewer."""
    xs = sorted(samples)
    if len(xs) <= 10:
        return None
    idx = len(xs) - 11
    return round(100.0 * (idx + 1) / len(xs), 1), xs[idx]


def src_lines(root=ROOT):
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py"))


class Run:
    """Attempt/failure bookkeeping shared by both modes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, problems):
        self.failed += 1
        for p in problems:
            print(f"FAIL {p}", file=sys.stderr)

    def operation(self, fn):
        """Run one build-and-check; an exception or a failed check is a
        failure.  Returns whether the operation succeeded."""
        self.attempted += 1
        try:
            problems = fn()
        except Exception:
            problems = ["exception:\n" + traceback.format_exc()]
        if problems:
            self.fail(problems)
        return not problems


def instances(w, seed, count):
    return [Instance(w, seed, i, make_input(w, seed, i)) for i in range(count)]


def batch(fn):
    """Mean seconds per call of fn, called back to back for at least BATCH_S."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= BATCH_S:
            return elapsed / calls


def timed_setup(lib, insts, setup_times):
    """One sample of the set-up time of an instance, over all instances."""
    setup_times.append(batch(lambda: [setup(lib, inst) for inst in insts]) / len(insts))


def timed_build(lib, run, inst, build_times, verify_times=None):
    """Build, check determinism against the instance's first build, verify.
    With verify_times the check is sampled by batch(); without, it runs
    once, so that a traced build counts exactly one check.  Returns whether
    every check passed."""

    def op():
        t0 = time.perf_counter()
        edges, cert, aux = build(lib, inst)
        build_times.append(time.perf_counter() - t0)
        fails = []
        d = digest(edges, cert)
        if inst.digest is None:
            inst.digest = d
        elif d != inst.digest:
            fails.append(f"instance {inst.index} rebuilt to a different output")
        if verify_times is None:
            fails += verify(lib, inst, edges, aux)
        else:
            checks = []
            verify_times.append(batch(lambda: checks.append(verify(lib, inst, edges, aux))))
            fails += checks[-1]
        if inst.quality is None:
            inst.quality = quality(lib, inst, edges)
            worst = inst.worst_ratio
            if worst is not None and abs(worst - inst.quality["worst_stretch"]) > 1e-9 * worst:
                fails.append(f"check_stretch worst {worst} != recomputed {inst.quality['worst_stretch']}")
        return fails

    return run.operation(op)


def measure(lib, w, seed, seconds):
    """End-to-end mode: round-robin builds over INSTANCES graphs."""
    run = Run()
    insts = instances(w, seed, INSTANCES)
    setup_times, build_times, verify_times = [], [], []
    t_start = time.perf_counter()
    i = 0
    while i < len(insts) or (time.perf_counter() - t_start + statistics.median(build_times) <= seconds):
        timed_setup(lib, insts, setup_times)
        timed_build(lib, run, insts[i % len(insts)], build_times, verify_times)
        i += 1
        if not build_times:
            break
    quals = [inst.quality for inst in insts if inst.quality is not None]
    if not build_times or not quals:
        return run, {}, {}
    edges = sum(q["edges"] for q in quals)
    spt = sum(q["spt_edges"] for q in quals)
    metrics = {
        "setup_s": statistics.fmean(setup_times),
        "build_s": statistics.fmean(build_times),
        "verify_s": statistics.fmean(verify_times),
        "spanner_edges": edges / len(quals),
        "edges_over_spt": edges / spt,
        "mean_stretch": statistics.fmean(q["mean_stretch"] for q in quals),
        "peak_rss_mb": peak_rss_mb(),
    }
    build_tail = tail(build_times)
    info = {
        "builds": len(build_times),
        "build_s_tail": build_tail,
        "build_s_samples": build_times,
        "verify_s_samples": verify_times,
        "setup_s_samples": setup_times,
        "spt_edges_mean": spt / len(quals),
        "worst_stretch": [q["worst_stretch"] for q in quals],
        "digests": [inst.digest for inst in insts],
        "notes": {
            "setup_s": f"mean of {len(setup_times)} samples; median {statistics.median(setup_times):.6g} s",
            "build_s": f"mean of {len(build_times)} builds; median {statistics.median(build_times):.6g} s, " + (
                "p{0}={1:.6g} s".format(*build_tail) if build_tail
                else "too few samples for a tail percentile"),
            "verify_s": f"mean of {len(verify_times)} samples; median {statistics.median(verify_times):.6g} s",
            "edges_over_spt": f"base: SPT-union {spt / len(quals):.6g} edges per instance",
            "mean_stretch": "worst per instance: " + ", ".join(f"{q['worst_stretch']:.4g}" for q in quals),
        },
    }
    return run, metrics, info


def layer_metrics(tracer, runs):
    """Per-layer metrics: self times are medians over traced runs, counters
    come from the first and must repeat exactly in the others."""
    selfs = [self_times(tracer.spans, r) for r in runs]
    counters = [tracer.counters.get(r, {}) for r in runs]
    out = {}
    for metric, (span, key) in PER_LAYER.items():
        if key == "s":
            out[metric] = statistics.median(s.get(span, 0.0) for s in selfs)
        else:
            out[metric] = counters[0].get(span, {}).get(key, 0)
    for metric, (num, base) in LAYER_RATIOS.items():
        out[metric] = out[num] / out[base] if out[base] else 0.0
    return out, all(c == counters[0] for c in counters)


def measure_traced(lib, w, seed, seconds):
    """Per-layer mode: alternate untraced and traced builds of instance 0,
    at least two traced ones so that the counters can be compared."""
    run = Run()
    (inst,) = instances(w, seed, 1)
    setup(lib, inst)
    tracer = Tracer()
    plain, traced, runs = [], [], []
    t_start = time.perf_counter()
    while len(runs) < 2 or time.perf_counter() - t_start + plain[-1] + traced[-1] <= seconds:
        if not timed_build(lib, run, inst, plain):
            break
        tracer.run = len(runs)
        with tracer.patched():
            lib.graph.parse_edge_list(inst.text)
            passed = timed_build(lib, run, inst, traced)
        if not passed:
            break
        runs.append(tracer.run)
    if not runs:
        return run, {}, {}
    metrics, repeat = layer_metrics(tracer, runs)
    if not repeat:
        run.fail(["per-layer counters differ between traced runs"])
    metrics["trace.build_s"] = statistics.median(traced)
    metrics["trace.untraced_build_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = metrics["trace.build_s"] - metrics["trace.untraced_build_s"]
    metrics["verify.worst_stretch"] = inst.quality["worst_stretch"]
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{w.name}-{seed}.json"
    spans_path.write_text(json.dumps([vars(s) for s in tracer.spans]))
    info = {"traced_runs": len(runs), "absent_sites": tracer.absent, "spans": str(spans_path.relative_to(ROOT)),
            "digest": inst.digest,
            "notes": {m: f"base: {metrics[base]:.6g} {base}" for m, (_, base) in LAYER_RATIOS.items()}}
    return run, metrics, info


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unit_of(metric):
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric in LAYER_RATIOS or metric == "verify.worst_stretch":
        return "ratio"
    if metric in TRACE_TIMES or metric.endswith(".s"):
        return "s"
    return "count"


def run_one(lib, name, seed, seconds, trace):
    w = WORKLOADS[name]
    mode = measure_traced if trace else measure
    run, metrics, info = mode(lib, w, seed, seconds)
    info.update(workload=name, seed=seed, trace=trace, src_lines=src_lines(), attempted=run.attempted)
    notes = info.pop("notes", {})
    for metric, value in metrics.items():
        print(f"{metric:40s} {value:14.6g} {unit_of(metric):6s} {notes.get(metric, '')}".rstrip())
    frac = run.failed / max(run.attempted, 1)
    print(f"{'failed_frac':40s} {frac:14.6g} {'ratio':6s} {run.failed} of {run.attempted} operations failed")
    print(json.dumps({"info": info}))
    return {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed if metrics else max(run.failed, 1),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def run_all(args):
    """Every workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{name}: exit {proc.returncode}")
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return merged


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        try:
            lib = load_library()
        except ImportError as exc:
            print(f"cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        result = run_one(lib, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
