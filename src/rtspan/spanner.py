"""Source-wise round-trip spanner assembly.

Both constructions are one assembly loop, "union of round-trip trees from
many covers", run over different windows.  The scale construction
contracts the graph to one weight window per scale, covers each window,
and maps tree edges back; the bottleneck certificate set rides along so
cheap cycles survive contraction.  The weighted construction skips
contraction and runs over the distance scales of the full graph; it
rejects weights below 1, so callers with smaller weights rescale first
(the command line tool does).

A window is covered once: when a cover returns only balls that hold the
whole window, and no failure part, such a ball is valid for every larger
scale of the same window, so later scales of it are skipped.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .cover import CoverParams, swrt_cover
from .estimate import _RowStore
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


def _assemble(stats: dict, windows, k: int, params, rng, provenance: dict) -> SpannerResult:
    """Cover the windows and union their ball tree edges into provenance.

    windows yields (tag, row, graph, edge_map, sources, R), R ascending
    over the windows of one graph: the window's stats row, its graph, the
    map from its edge indexes to the input's, its sources and its target
    distance.  New edges land under tag.  Each window draws from its own
    stream, seeded by one draw from rng and its tag.  stats, the header of
    the result's counters, gains the rows and the totals.

    A window is skipped, its row recorded with zero counters, when it has
    no sources, or when an earlier cover of the same Graph object spanned
    it: that cover had no failure part and every ball held all graph.n
    vertices, so each trial ended in one whole-window ball of radius at
    most 2(c+1)*r, within the radius bound of every larger R as well.
    Equal windows are one Graph with one vertex map, so they have the same
    sources.  Each row's spanned_by names the spanning cover's tag, or is
    None.

    A cover's root store (distance rows and balls over the whole window)
    holds no radius, so when the next covered window is the same Graph
    object, the live store is handed on to its cover and nothing searched
    is searched again.  Only the newest store is kept: a store per window
    for the whole build would hold every window's rows at once.
    """
    base = rng.getrandbits(64)
    rows = []
    store = None
    spanned = {}  # window Graph -> tag of the cover that spanned it
    for tag, row, graph, edge_map, sources, R in windows:
        rows.append(row)
        spanned_by = spanned.get(graph)
        if spanned_by or not sources:
            row.update(skipped=True, spanned_by=spanned_by, trials=0, balls=0,
                       failures=0, max_depth=0, new_edges=0)
            continue
        if store is None or store.g is not graph:
            store = _RowStore(graph, list(range(graph.n)))
        cov = swrt_cover(graph, k, R, sources, params=params,
                         rng=random.Random(f"{base}:{tag}"), _root_rows=store)
        if not cov.failure_parts and all(len(b.members) == graph.n for b in cov.balls):
            spanned[graph] = tag
        new_edges = 0
        # each tree once, in first-seen order: a repeated ball adds no edge
        for tree in dict.fromkeys(ball.rt_tree_edges for ball in cov.balls):
            for e in tree:
                oe = edge_map[e]
                if oe not in provenance:
                    provenance[oe] = tag
                    new_edges += 1
        row.update(skipped=False, spanned_by=None, trials=cov.trials,
                   balls=len(cov.balls), failures=len(cov.failure_parts),
                   max_depth=cov.max_depth, new_edges=new_edges)
    edges = tuple(sorted(provenance))
    stats.update(scales=rows, failures=sum(r["failures"] for r in rows),
                 total_edges=len(edges))
    return SpannerResult(edges=edges, provenance=provenance, stats=stats)


def swrt_spanner(g: Graph, k: int, sources, params: CoverParams | None = None,
                 rng: random.Random | None = None) -> SpannerResult:
    """Build a source-wise round-trip spanner via contraction scales.

    The bottleneck certificate edges come first under tag "bottleneck";
    each scale t then covers its contracted window at radius 2^t and its
    new tree edges land under tag "scale:<t>".  Scales whose sources all
    vanished in contraction, and later scales of a window that an earlier
    scale's cover spanned, are recorded but not covered.
    """
    src = _check_inputs(g, k, sources, rng)
    tree, h1 = linfty_merge_tree(g)
    windows = (
        (f"scale:{b.t}",
         {"t": b.t, "n": b.graph.n, "m": b.graph.m, "sources": len(b.sources)},
         b.graph, b.edge_map, sorted(b.sources), 2.0 ** b.t)
        for b in build_scales(g, src, tree)
    )
    stats = {"mode": "scales", "n": g.n, "m": g.m, "k": k, "sources": len(src),
             "bottleneck_edges": len(h1)}
    return _assemble(stats, windows, k, params, rng, dict.fromkeys(sorted(h1), "bottleneck"))


def swrt_spanner_weighted(g: Graph, k: int, sources, params: CoverParams | None = None,
                          rng: random.Random | None = None) -> SpannerResult:
    """Build a source-wise round-trip spanner over the distance scales of
    the full graph, radius 2^i for i up to log2(2 n w_max).  Scales after
    the first whole-graph cover (one ball holding every vertex in every
    trial) are recorded but not covered.

    Every weight must be at least 1: the first scale has radius 2, so
    shorter round trips would stay uncovered.  Rescale smaller weights
    first; stretch is scale-free.
    """
    src = _check_inputs(g, k, sources, rng)
    if g.m > 0 and min(w for _, _, w in g.edges) < 1.0:
        raise ValueError("weights must be at least 1; rescale them first")
    top = math.ceil(math.log2(2.0 * g.n * max(w for _, _, w in g.edges))) if g.m else 0
    windows = (
        (f"wscale:{i}", {"i": i, "radius": 2.0 ** i}, g, range(g.m), src, 2.0 ** i)
        for i in range(1, top + 1)
    )
    stats = {"mode": "weighted", "n": g.n, "m": g.m, "k": k, "sources": len(src)}
    return _assemble(stats, windows, k, params, rng, {})
