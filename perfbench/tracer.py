"""Outside-in tracer: spans and counters around the library's call sites.

The pipeline looks its layers up as module globals (cover.py calls
`estimate_ball_fractions`, spanner.py calls `swrt_cover`, ...).  The
tracer swaps each such global for a wrapper for the duration of a
`with tracer.patched():` block and restores the original afterwards, so
untraced runs execute the library untouched.  A site whose module or
attribute no longer exists is recorded as absent and skipped: a later
refactor can make a layer disappear from the trace, never break it.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run: int


def _rows_cells(args, kwargs, ret):
    return {"calls": 1, "rows": int(ret.shape[0]), "cells": int(ret.size)}


def _ball(args, kwargs, ret):
    return {"calls": 1, "members": len(ret.members)}


def _estimate(args, kwargs, ret):
    g, restrict = args[0], args[1]
    working = g.n if restrict is None else len(restrict)
    return {"calls": 1, "samples": ret.t, "working_set": working}


def _swrt_cover(args, kwargs, ret):
    return {
        "calls": 1,
        "trials": ret.trials,
        "balls": len(ret.balls),
        "distinct_balls": len({b.members for b in ret.balls}),
        "failure_parts": len(ret.failure_parts),
        "max_depth": ret.max_depth,
    }


def _cluster(args, kwargs, ret):
    return {"calls": 1, "clusters": len(ret.clusters), "residual": len(ret.residual)}


def _merge_tree(args, kwargs, ret):
    tree, h1 = ret
    return {"calls": 1, "merge_nodes": tree.size - tree.n, "certificate_edges": len(h1)}


def _build_scales(args, kwargs, ret):
    return {
        "calls": 1,
        "scales": len(ret),
        "distinct_windows": len({b.edge_map for b in ret}),
        "window_n_sum": sum(b.graph.n for b in ret),
        "window_m_sum": sum(b.graph.m for b in ret),
    }


def _spanner(args, kwargs, ret):
    rows = ret.stats.get("scales", [])
    skipped = sum(1 for r in rows if r.get("skipped"))
    return {"calls": 1, "scales_covered": len(rows) - skipped, "scales_skipped": skipped}


def _check_stretch(args, kwargs, ret):
    return {"calls": 1, "qualifying_pairs": ret.qualifying_pairs}


def _calls(args, kwargs, ret):
    return {"calls": 1}


# (module, attribute, span name, counters from (args, kwargs, return value)).
# One span name may sit at several call sites of the same function.
SITES = (
    ("rtspan.graph", "parse_edge_list", "graph.parse_edge_list", _calls),
    ("rtspan.estimate", "distance_matrix", "graph.distance_matrix", _rows_cells),
    ("rtspan.cover", "round_trip_ball", "graph.round_trip_ball", _ball),
    ("rtspan.cover", "estimate_ball_fractions", "estimate", _estimate),
    ("rtspan.cover", "cluster", "partition.cluster", _cluster),
    ("rtspan.cover", "recursive_cover", "cover.recursive_cover", _calls),
    ("rtspan.spanner", "swrt_cover", "cover.swrt_cover", _swrt_cover),
    ("rtspan.spanner", "linfty_merge_tree", "linfty.merge_tree", _merge_tree),
    ("rtspan.linfty", "linfty_merge_tree", "linfty.merge_tree", _merge_tree),
    ("rtspan.spanner", "build_scales", "linfty.build_scales", _build_scales),
    ("rtspan.linfty", "build_scales", "linfty.build_scales", _build_scales),
    ("rtspan.linfty", "contract", "linfty.contract", _calls),
    ("rtspan.spanner", "swrt_spanner", "spanner.swrt_spanner", _spanner),
    ("rtspan.verify", "check_stretch", "verify.check_stretch", _check_stretch),
)


# Counters that keep the largest value seen; every other counter sums.
MAX_COUNTERS = frozenset({"max_depth"})


class Tracer:
    """Collects spans and per-span-name counters for numbered runs."""

    def __init__(self, sites=SITES):
        self.sites = sites
        self.spans = []
        self.counters = {}  # run -> {span name: {counter: total}}
        self.absent = []
        self.run = 0
        self._stack = []

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
            self._stack.append(idx)
            try:
                ret = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx].end = time.perf_counter()
            totals = self.counters.setdefault(self.run, {}).setdefault(name, {})
            for key, val in count(args, kwargs, ret).items():
                merge = max if key in MAX_COUNTERS else sum
                totals[key] = merge((totals.get(key, 0), val))
            return ret

        return traced

    @contextmanager
    def patched(self):
        """Swap every present call site for its traced wrapper."""
        saved = []
        self.absent = []
        try:
            for modname, attr, name, count in self.sites:
                try:
                    mod = importlib.import_module(modname)
                except ImportError:
                    mod = None
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    self.absent.append(f"{modname}.{attr}")
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, count))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, run=None):
    """Self time per span name: each span's duration minus the part of its
    interval that its child spans cover.  Parent fields index `spans`;
    run=None sums over every run."""
    children = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for i, s in enumerate(spans):
        if run is not None and s.run != run:
            continue
        own = (s.end - s.start) - _covered(children.get(i, ()), s.start, s.end)
        out[s.name] = out.get(s.name, 0.0) + own
    return out
