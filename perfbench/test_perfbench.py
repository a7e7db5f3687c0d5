"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench
"""

import dataclasses
import json

import pytest

import run
from tracer import Span, Tracer, self_times
from workloads import WORKLOADS

lib = run.load_library()


def small(name, **sizes):
    return dataclasses.replace(WORKLOADS[name], **sizes)


SMALL_GRID = small("spanner-grid", n=40, m=160, sources=3)
SMALL_RING = small("spanner-ring", n=60, chords=6, sources=3)
SMALL_BOTTLENECK = small("bottleneck-sparse", n=80, m=320, sources=4)


def traced_counters(w, seed):
    """Counters of one traced build plus its check, on instance 0."""
    (inst,) = run.instances(w, seed, 1)
    run.setup(lib, inst)
    tracer = Tracer()
    with tracer.patched():
        edges, _, aux = run.build(lib, inst)
        assert run.verify(lib, inst, edges, aux) == []
    assert tracer.absent == []
    return tracer.counters[0]


@pytest.mark.parametrize("w", [SMALL_GRID, SMALL_RING, SMALL_BOTTLENECK], ids=lambda w: w.name)
def test_counters_repeat_exactly(w):
    first = traced_counters(w, seed=3)
    assert first
    assert traced_counters(w, seed=3) == first


@pytest.mark.parametrize("w", [SMALL_GRID, SMALL_RING], ids=lambda w: w.name)
def test_traced_run_checks_each_build_once(w):
    bench, metrics, info = run.measure_traced(lib, w, seed=3, seconds=0)
    assert bench.failed == 0  # counters repeated across the traced runs
    assert info["traced_runs"] == 2
    spans = json.loads((run.ROOT / info["spans"]).read_text())
    assert sum(s["name"] == "verify.check_stretch" for s in spans) == info["traced_runs"]
    assert metrics["verify.check_stretch.calls"] == 1


def test_cluster_runs_on_ring_family_only():
    grid = traced_counters(SMALL_GRID, seed=5)
    ring = traced_counters(SMALL_RING, seed=5)
    assert grid.get("partition.cluster", {}).get("calls", 0) == 0
    assert ring["partition.cluster"]["calls"] > 0


def test_patched_sites_are_restored_and_missing_ones_skipped():
    original = lib.cover.estimate_ball_fractions
    tracer = Tracer(sites=sites_with_missing())
    with tracer.patched():
        assert lib.cover.estimate_ball_fractions is not original
    assert lib.cover.estimate_ball_fractions is original
    assert tracer.absent == ["rtspan.cover.no_such_layer", "rtspan.no_such_module.f"]


def sites_with_missing():
    count = lambda args, kwargs, ret: {"calls": 1}
    return (
        ("rtspan.cover", "estimate_ball_fractions", "estimate", count),
        ("rtspan.cover", "no_such_layer", "gone", count),
        ("rtspan.no_such_module", "f", "gone", count),
    )


def test_self_time_subtracts_child_spans():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: union 5)
    # and [8, 12] (clipped to [8, 10]: 2); child [1, 4] has grandchild [2, 3].
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a", 3.0, 6.0, 0, 0),
        Span("b", 8.0, 12.0, 0, 0),
        Span("c", 2.0, 3.0, 1, 0),
        Span("root", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans, run=0) == pytest.approx({"root": 3.0, "a": 5.0, "b": 4.0, "c": 1.0})
    assert self_times(spans) == pytest.approx({"root": 4.0, "a": 5.0, "b": 4.0, "c": 1.0})


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == (9.1, 0)
    assert run.tail(list(range(100))) == (90.0, 89)
