"""Source-wise round-trip spanner assembly.

Two constructions share the shape "union of round-trip trees from many
covers".  The scale construction contracts the graph to one weight window
per scale, covers each window, and maps tree edges back; the bottleneck
certificate set rides along so cheap cycles survive contraction.  The
weighted construction skips contraction and simply covers every distance
scale of the full graph; it rejects weights below 1, so callers with
smaller weights rescale first (the command line tool does).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .cover import CoverParams, swrt_cover
from .graph import Graph
from .linfty import build_scales, linfty_merge_tree


@dataclass(frozen=True, eq=False)
class SpannerResult:
    """edges: sorted original edge indexes of the spanner.
    provenance: edge index -> tag of the first pass that added it
    ("bottleneck", "scale:<t>", or "wscale:<i>").
    stats: construction counters, one row per scale."""

    edges: tuple
    provenance: dict
    stats: dict


def _check_inputs(g: Graph, k, sources, rng):
    if not isinstance(k, int) or isinstance(k, bool) or k <= 1:
        raise ValueError("k must be an integer greater than 1")
    if rng is None:
        raise ValueError("rng is required")
    src = sorted(set(sources))
    if not src:
        raise ValueError("sources must be non-empty")
    for s in src:
        if not (0 <= s < g.n):
            raise ValueError(f"source {s} is not a vertex")
    return src


def swrt_spanner(g: Graph, k: int, sources, params: CoverParams | None = None,
                 rng: random.Random | None = None) -> SpannerResult:
    """Build a source-wise round-trip spanner via contraction scales.

    The bottleneck certificate edges come first under tag "bottleneck";
    each scale t then covers its contracted window at radius 2^t and its
    new tree edges land under tag "scale:<t>".  Scales whose sources all
    vanished in contraction are recorded but not covered.
    """
    src = _check_inputs(g, k, sources, rng)
    params = params if params is not None else CoverParams()
    tree, h1 = linfty_merge_tree(g)
    provenance = {}
    for e in sorted(h1):
        provenance[e] = "bottleneck"
    base = rng.getrandbits(64)
    rows = []
    for bundle in build_scales(g, src, tree):
        row = {
            "t": bundle.t,
            "n": bundle.graph.n,
            "m": bundle.graph.m,
            "sources": len(bundle.sources),
        }
        if not bundle.sources:
            row.update(skipped=True, trials=0, balls=0,
                       failures=0, max_depth=0, new_edges=0)
            rows.append(row)
            continue
        sub_rng = random.Random(f"{base}:scale:{bundle.t}")
        cov = swrt_cover(bundle.graph, k, 2.0 ** bundle.t,
                         sorted(bundle.sources), params=params, rng=sub_rng)
        tag = f"scale:{bundle.t}"
        new_edges = 0
        for ball in cov.balls:
            for ce in ball.rt_tree_edges:
                oe = bundle.edge_map[ce]
                if oe not in provenance:
                    provenance[oe] = tag
                    new_edges += 1
        row.update(skipped=False, trials=cov.trials, balls=len(cov.balls),
                   failures=len(cov.failure_parts), max_depth=cov.max_depth,
                   new_edges=new_edges)
        rows.append(row)
    edges = tuple(sorted(provenance))
    stats = {
        "mode": "scales",
        "n": g.n,
        "m": g.m,
        "k": k,
        "sources": len(src),
        "bottleneck_edges": len(h1),
        "scales": rows,
        "failures": sum(r["failures"] for r in rows),
        "total_edges": len(edges),
    }
    return SpannerResult(edges=edges, provenance=provenance, stats=stats)


def swrt_spanner_weighted(g: Graph, k: int, sources, params: CoverParams | None = None,
                          rng: random.Random | None = None) -> SpannerResult:
    """Build a source-wise round-trip spanner by covering every distance
    scale of the full graph, radius 2^i for i up to log2(2 n w_max).

    Every weight must be at least 1: the first scale has radius 2, so
    shorter round trips would stay uncovered.  Rescale smaller weights
    first; stretch is scale-free.
    """
    src = _check_inputs(g, k, sources, rng)
    if g.m > 0 and min(w for _, _, w in g.edges) < 1.0:
        raise ValueError("weights must be at least 1; rescale them first")
    params = params if params is not None else CoverParams()
    provenance = {}
    rows = []
    base = rng.getrandbits(64)
    if g.m > 0:
        w_max = max(w for _, _, w in g.edges)
        top = math.ceil(math.log2(2.0 * g.n * w_max))
        for i in range(1, top + 1):
            sub_rng = random.Random(f"{base}:wscale:{i}")
            cov = swrt_cover(g, k, 2.0 ** i, src, params=params, rng=sub_rng)
            tag = f"wscale:{i}"
            new_edges = 0
            for ball in cov.balls:
                for e in ball.rt_tree_edges:
                    if e not in provenance:
                        provenance[e] = tag
                        new_edges += 1
            rows.append({
                "i": i, "radius": 2.0 ** i, "trials": cov.trials,
                "balls": len(cov.balls), "failures": len(cov.failure_parts),
                "max_depth": cov.max_depth, "new_edges": new_edges,
            })
    edges = tuple(sorted(provenance))
    stats = {
        "mode": "weighted",
        "n": g.n,
        "m": g.m,
        "k": k,
        "sources": len(src),
        "scales": rows,
        "failures": sum(r["failures"] for r in rows),
        "total_edges": len(edges),
    }
    return SpannerResult(edges=edges, provenance=provenance, stats=stats)
