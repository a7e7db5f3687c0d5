import random

import pytest

import rtspan.estimate as est_mod
from conftest import random_graph, ring_with_chords
from rtspan.cover import CoverParams
from rtspan.graph import OUT, Graph
from rtspan.linfty import build_scales, linfty_merge_tree
from rtspan.spanner import SpannerResult, swrt_spanner, swrt_spanner_weighted
from rtspan.verify import check_stretch, stretch_bound


def cycle_graph(n, w=1.0):
    return Graph(n, [(i, (i + 1) % n, w) for i in range(n)])


class TestScaleSpanner:
    def test_cycle_needs_every_edge(self):
        g = cycle_graph(8)
        res = swrt_spanner(g, 2, [0], rng=random.Random(0))
        assert res.edges == tuple(range(8))
        rep = check_stretch(g, res.edges, [0], stretch_bound(2, g.n))
        assert rep.passed and rep.worst_ratio == 1.0

    def test_dag_is_empty(self):
        g = Graph(5, [(0, 1, 1.0), (1, 2, 2.0), (0, 3, 1.5), (3, 4, 1.0)])
        res = swrt_spanner(g, 2, [0, 3], rng=random.Random(1))
        assert res.edges == ()
        assert res.stats["scales"] == []
        assert res.stats["bottleneck_edges"] == 0

    def test_two_cycle_exact(self):
        g = Graph(2, [(0, 1, 3.0), (1, 0, 5.0)])
        res = swrt_spanner(g, 2, [0], rng=random.Random(2))
        assert res.edges == (0, 1)
        assert res.provenance == {0: "bottleneck", 1: "bottleneck"}
        rep = check_stretch(g, res.edges, [0], stretch_bound(2, g.n))
        assert rep.worst_ratio == 1.0

    def test_subgraph_and_provenance_shape(self):
        g = random_graph("sp1", 30, 120, strongly_connected=True)
        res = swrt_spanner(g, 2, [0, 7, 19], rng=random.Random(3))
        assert res.edges == tuple(sorted(set(res.edges)))
        assert all(0 <= e < g.m for e in res.edges)
        assert set(res.provenance) == set(res.edges)
        _, h1 = linfty_merge_tree(g)
        for e in h1:
            assert res.provenance[e] == "bottleneck"
        valid = {"bottleneck"} | {f"scale:{r['t']}" for r in res.stats["scales"]}
        assert set(res.provenance.values()) <= valid

    def test_stats_counters_consistent(self):
        g = random_graph("sp2", 25, 100, strongly_connected=True)
        res = swrt_spanner(g, 3, [2, 11], rng=random.Random(4))
        st = res.stats
        assert st["mode"] == "scales"
        assert (st["n"], st["m"], st["k"], st["sources"]) == (25, 100, 3, 2)
        assert st["total_edges"] == len(res.edges)
        assert st["failures"] == sum(r["failures"] for r in st["scales"])
        new = sum(r["new_edges"] for r in st["scales"])
        assert st["bottleneck_edges"] + new == st["total_edges"]
        for r in st["scales"]:
            if r["skipped"]:
                assert r["trials"] == 0 and r["new_edges"] == 0

    def test_deterministic_under_seed(self):
        g = random_graph("sp3", 20, 80, strongly_connected=True)
        a = swrt_spanner(g, 2, [0, 9], rng=random.Random(7))
        b = swrt_spanner(g, 2, [0, 9], rng=random.Random(7))
        assert a.edges == b.edges
        assert a.provenance == b.provenance
        assert a.stats == b.stats

    def test_stretch_holds_on_random_graph(self):
        g = random_graph("sp4", 30, 140, strongly_connected=True)
        src = [1, 8, 22]
        res = swrt_spanner(g, 2, src, rng=random.Random(11))
        rep = check_stretch(g, res.edges, src, stretch_bound(2, g.n))
        assert res.stats["failures"] == 0
        assert rep.passed
        assert rep.infinite_violations == 0

    def test_validation(self):
        g = cycle_graph(4)
        rng = random.Random(0)
        for bad_k in (1, 0, True, 2.5):
            with pytest.raises(ValueError, match="k must"):
                swrt_spanner(g, bad_k, [0], rng=rng)
        with pytest.raises(ValueError, match="rng"):
            swrt_spanner(g, 2, [0])
        with pytest.raises(ValueError, match="non-empty"):
            swrt_spanner(g, 2, [], rng=rng)
        with pytest.raises(ValueError, match="not a vertex"):
            swrt_spanner(g, 2, [5], rng=rng)


class TestSharedWindows:
    def test_equal_windows_search_their_rows_once(self, monkeypatch):
        # grid weights: scales 1-5 are one window, so their covers hand one
        # root store on; every weighted window is the input graph itself
        g = random_graph("bs-share", 40, 160, strongly_connected=True)
        src = [0, 5, 11, 17]
        tree, _ = linfty_merge_tree(g)
        keys = [(b.vertex_map, b.edge_map) for b in build_scales(g, src, tree) if b.sources]
        runs = 1 + sum(a != b for a, b in zip(keys, keys[1:]))
        assert runs < len(keys)
        root_calls = []
        real = est_mod.distance_matrix

        def spy(g_, restrict, sources=None, direction=OUT):
            if len(restrict) == g_.n:
                root_calls.append(direction)
            return real(g_, restrict, sources=sources, direction=direction)

        monkeypatch.setattr(est_mod, "distance_matrix", spy)
        swrt_spanner(g, 2, src, rng=random.Random(5))
        assert 0 < len(root_calls) <= 2 * runs
        root_calls.clear()
        res = swrt_spanner_weighted(g, 2, src, rng=random.Random(5))
        assert len(res.stats["scales"]) > 1
        assert 0 < len(root_calls) <= 2


class TestWeightedSpanner:
    def test_dag_is_empty(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        res = swrt_spanner_weighted(g, 2, [0], rng=random.Random(0))
        assert res.edges == ()
        assert res.stats["mode"] == "weighted"
        assert all(r["balls"] >= 1 for r in res.stats["scales"])

    def test_cycle_needs_every_edge(self):
        g = cycle_graph(6)
        res = swrt_spanner_weighted(g, 2, [0], rng=random.Random(1))
        assert res.edges == tuple(range(6))
        assert set(res.provenance.values()) <= {f"wscale:{r['i']}"
                                                for r in res.stats["scales"]}

    def test_edgeless_graph(self):
        g = Graph(3, [])
        res = swrt_spanner_weighted(g, 2, [0], rng=random.Random(2))
        assert res.edges == () and res.stats["scales"] == []

    def test_both_variants_meet_bound(self):
        g = random_graph("spw", 30, 120, strongly_connected=True)
        src = [3, 17]
        bound = stretch_bound(2, g.n)
        a = swrt_spanner(g, 2, src, rng=random.Random(5))
        b = swrt_spanner_weighted(g, 2, src, rng=random.Random(5))
        for res in (a, b):
            rep = check_stretch(g, res.edges, src, bound)
            assert rep.passed and rep.infinite_violations == 0

    def test_validation_shared(self):
        g = cycle_graph(3)
        with pytest.raises(ValueError, match="k must"):
            swrt_spanner_weighted(g, 1, [0], rng=random.Random(0))

    def test_weights_below_one_rejected(self):
        # the first scale has radius 2, so a 0.25 + 0.25 round trip would
        # never be covered; the library refuses instead of under-covering
        g = Graph(3, [(0, 1, 0.25), (1, 0, 0.25), (1, 2, 3.0), (2, 1, 3.0)])
        with pytest.raises(ValueError, match="at least 1"):
            swrt_spanner_weighted(g, 2, [0], rng=random.Random(0))


# n = 1, and self-loops with parallel edges, all weights >= 1
DEGENERATE = {
    "one-vertex": Graph(1, []),
    "one-vertex-self-loop": Graph(1, [(0, 0, 1.0)]),
    "loops-and-parallels": Graph(3, [(0, 0, 2.0), (0, 1, 1.0), (0, 1, 3.0), (1, 0, 1.5),
                                     (1, 1, 1.0), (1, 2, 2.0), (2, 1, 1.0), (2, 1, 1.0),
                                     (2, 2, 5.0)]),
}


@pytest.mark.parametrize("build", [swrt_spanner, swrt_spanner_weighted],
                         ids=["scales", "weighted"])
@pytest.mark.parametrize("name", list(DEGENERATE))
def test_degenerate_inputs(name, build):
    g = DEGENERATE[name]
    src = list(range(g.n))
    res = build(g, 2, src, rng=random.Random(3))
    assert check_stretch(g, res.edges, src, stretch_bound(2, g.n)).passed
    loops = {i for i, (u, v, _) in enumerate(g.edges) if u == v}
    assert not loops & set(res.edges)


# Spanner edges recorded before the distance rows of the cover's first
# estimate were shared across trials; any change in RNG use or output
# shows up here.
GOLDEN_GRID = (
    1, 2, 3, 5, 6, 8, 10, 11, 12, 13, 15, 16, 18, 19, 20, 21, 22, 24, 25, 26,
    27, 28, 29, 31, 33, 35, 37, 38, 39, 40, 42, 43, 44, 45, 46, 48, 51, 52, 54,
    55, 56, 58, 59, 60, 62, 63, 64, 66, 67, 68, 69, 72, 73, 74, 75, 76, 77, 78,
    84, 86, 87, 90, 91, 92, 93, 95, 101, 104, 105, 108, 109, 111, 112, 113,
    115, 117, 118, 119,
)
GOLDEN_RING = (
    0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
    22, 23, 24, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41,
    42, 43, 44, 45, 46, 48, 50, 51, 52, 53, 54, 55, 56, 57, 59, 60, 61, 62, 63,
    64, 65, 66, 68, 70, 72, 73, 74, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 85,
)


GOLDEN_GRID_BOTTLENECK = (
    1, 2, 3, 6, 10, 11, 12, 13, 15, 16, 19, 21, 25, 26, 27, 28, 29, 31, 33,
    35, 37, 39, 42, 43, 45, 46, 48, 54, 56, 59, 62, 63, 64, 66, 68, 72, 73,
    75, 76, 77, 84, 90, 91, 92, 93, 113, 115, 117, 118, 119,
)

# Weighted-variant provenance, grouped as {tag: edges}; recorded before
# the two drivers shared one assembly loop.
GOLDEN_WEIGHTED_GRID = {
    "wscale:1": (
        2, 3, 5, 8, 12, 15, 18, 19, 20, 21, 22, 24, 27, 28, 33, 38, 40,
        43, 44, 45, 46, 48, 51, 52, 55, 56, 58, 60, 64, 67, 68, 69, 73,
        74, 76, 78, 86, 87, 91, 95, 101, 104, 105, 108, 109, 111, 112,
        113, 117, 118, 119,
    ),
}
GOLDEN_WEIGHTED_RING = {
    "wscale:1": (
        0, 1, 16, 17, 18, 19, 42, 43, 44, 45, 46, 47, 48, 50, 51, 52,
        53, 55, 57, 59, 60, 61, 62, 64, 65, 81, 83,
    ),
    "wscale:2": (
        2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 20, 21, 22, 23,
        24, 25, 26, 27, 28, 29, 30, 32, 33, 34, 35, 36, 37, 38, 39, 40,
        41, 66, 68, 70, 72, 74, 76, 77, 78, 79, 80, 84, 85,
    ),
    "wscale:3": (73, 75),
}


def _by_tag(provenance):
    out = {}
    for e, tag in sorted(provenance.items()):
        out.setdefault(tag, []).append(e)
    return {tag: tuple(es) for tag, es in out.items()}


def _scale_row(t, new_edges):
    return {"t": t, "n": 30, "m": 120, "sources": 4, "skipped": False,
            "trials": 32, "balls": 32, "failures": 0, "max_depth": 2,
            "new_edges": new_edges}


def _wscale_row(i, balls=32, failures=0, max_depth=2, new_edges=0):
    return {"i": i, "radius": 2.0 ** i, "trials": 32, "balls": balls,
            "failures": failures, "max_depth": max_depth, "new_edges": new_edges}


class TestGoldenEdges:
    """Seeded builds whose output is pinned: a refactor keeps edges,
    provenance and stats bit-identical unless it says why they change."""

    def test_grid_weight_erdos_renyi(self):
        g = random_graph("golden-grid", 30, 120)
        res = swrt_spanner(g, 2, [2, 9, 17, 26], rng=random.Random(31))
        assert res.edges == GOLDEN_GRID
        scale = tuple(e for e in GOLDEN_GRID if e not in GOLDEN_GRID_BOTTLENECK)
        assert _by_tag(res.provenance) == {"bottleneck": GOLDEN_GRID_BOTTLENECK,
                                           "scale:1": scale}
        assert res.stats == {
            "mode": "scales", "n": 30, "m": 120, "k": 2, "sources": 4,
            "bottleneck_edges": 50,
            "scales": [_scale_row(t, 28 if t == 1 else 0) for t in range(1, 6)],
            "failures": 0, "total_edges": 78,
        }

    def test_ring_with_chords(self):
        g = ring_with_chords("golden-ring", 40, 6)
        res = swrt_spanner(g, 2, [0, 10, 21, 33], rng=random.Random(32))
        assert res.edges == GOLDEN_RING

    def test_weighted_grid_weight_erdos_renyi(self):
        g = random_graph("golden-grid", 30, 120)
        res = swrt_spanner_weighted(g, 2, [2, 9, 17, 26], rng=random.Random(33))
        assert res.edges == GOLDEN_WEIGHTED_GRID["wscale:1"]
        assert _by_tag(res.provenance) == GOLDEN_WEIGHTED_GRID
        assert res.stats == {
            "mode": "weighted", "n": 30, "m": 120, "k": 2, "sources": 4,
            "scales": [_wscale_row(i, new_edges=51 if i == 1 else 0)
                       for i in range(1, 8)],
            "failures": 0, "total_edges": 51,
        }

    def test_weighted_ring_with_chords(self):
        g = ring_with_chords("golden-ring", 40, 6)
        res = swrt_spanner_weighted(g, 2, [0, 10, 21, 33], rng=random.Random(34))
        assert res.edges == tuple(sorted(e for es in GOLDEN_WEIGHTED_RING.values()
                                         for e in es))
        assert _by_tag(res.provenance) == GOLDEN_WEIGHTED_RING
        assert res.stats == {
            "mode": "weighted", "n": 40, "m": 86, "k": 2, "sources": 4,
            "scales": [_wscale_row(1, balls=127, max_depth=3, new_edges=27),
                       _wscale_row(2, balls=22, failures=16, new_edges=46),
                       _wscale_row(3, new_edges=2)]
                      + [_wscale_row(i) for i in range(4, 17)],
            "failures": 16, "total_edges": 75,
        }
