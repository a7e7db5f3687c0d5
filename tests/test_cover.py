import gc
import math
import random
from collections import Counter

import numpy as np
import pytest

import rtspan.cover as cover_mod
import rtspan.estimate as est_mod
import rtspan.graph as graph_mod
from conftest import edge_subgraph, random_graph, ring_with_chords
from rtspan.cover import Cover, CoverParams, _ceil_root, recursive_cover, swrt_cover
from rtspan.graph import IN, OUT, Graph, round_trip_ball, sssp
from rtspan.partition import Cluster, Partition


class TestParams:
    def test_defaults(self):
        p = CoverParams()
        assert (p.c, p.epsilon, p.trial_mult) == (4, 0.125, 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="c must"):
            CoverParams(c=0)
        with pytest.raises(ValueError, match="c must"):
            CoverParams(c=2.5)
        with pytest.raises(ValueError, match="epsilon"):
            CoverParams(epsilon=1.0)
        with pytest.raises(ValueError, match="trial_mult"):
            CoverParams(trial_mult=0)


class TestCeilRoot:
    def test_examples(self):
        assert _ceil_root(8, 3) == 2
        assert _ceil_root(9, 2) == 3
        assert _ceil_root(27, 3) == 3
        assert _ceil_root(28, 3) == 4
        assert _ceil_root(1, 5) == 1
        assert _ceil_root(16, 2) == 4

    def test_defining_property(self):
        for s in range(1, 200):
            for k in (2, 3, 4):
                a = _ceil_root(s, k)
                assert a ** k >= s and (a - 1) ** k < s


class TestRecursiveCover:
    def test_empty_sources(self):
        g = random_graph("rc0", 12, 40)
        cov = recursive_cover(g, 1.0, [], rng=random.Random(0))
        assert cov.balls == () and cov.failure_parts == ()

    def test_single_source_is_one_ball(self):
        g = random_graph("rc1", 15, 50)
        cov = recursive_cover(g, 2.0, [4], rng=random.Random(0))
        assert len(cov.balls) == 1
        assert cov.balls[0] == round_trip_ball(g, None, 4, 2.0)
        assert cov.max_depth == 1

    def test_small_cycle_single_carve(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        cov = recursive_cover(g, 2.0, [0, 1, 2], rng=random.Random(7))
        assert len(cov.balls) == 1
        assert cov.balls[0].members == frozenset({0, 1, 2})
        assert cov.failure_parts == ()

    def test_balls_and_failures_disjoint_per_run(self):
        for i in range(8):
            g = random_graph(f"rcd:{i}", 40, 130, strongly_connected=i % 2 == 0)
            rng = random.Random(i)
            S = sorted(rng.sample(range(40), 12))
            cov = recursive_cover(g, 1.0, S, rng=rng)
            claimed = set()
            for part in [b.members for b in cov.balls] + list(cov.failure_parts):
                assert not (claimed & part)
                claimed |= part

    def test_ball_radius_certified_by_tree(self):
        params = CoverParams(c=2)
        cap = 2.0 * (params.c + 1) * 0.5
        for i in range(6):
            g = random_graph(f"rcr:{i}", 30, 120, strongly_connected=True)
            rng = random.Random(i)
            cov = recursive_cover(g, 0.5, sorted(rng.sample(range(30), 8)),
                                  params, rng)
            assert cov.failure_parts == ()
            for b in cov.balls:
                tree = edge_subgraph(g, b.rt_tree_edges)
                d_out = sssp(tree, None, b.center, OUT).dist
                d_in = sssp(tree, None, b.center, IN).dist
                for v in b.members:
                    assert d_out[v] + d_in[v] <= cap * (1 + 1e-9)

    def test_depth_bound(self):
        n = 60
        g = random_graph("rcdep", n, 220, strongly_connected=True)
        rng = random.Random(11)
        cov = recursive_cover(g, 0.25, sorted(rng.sample(range(n), 20)),
                              rng=rng)
        assert cov.max_depth <= 1 + math.ceil(math.log(n) / math.log(8 / 7))

    def test_validation(self):
        g = Graph(4, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="rng"):
            recursive_cover(g, 1.0, [0])
        with pytest.raises(ValueError, match="r must"):
            recursive_cover(g, 0.0, [0], rng=random.Random(0))
        with pytest.raises(ValueError, match="vertices of g"):
            recursive_cover(g, 1.0, [4], rng=random.Random(0))

    @pytest.mark.parametrize("r", [math.nan, math.inf, 1e308])
    def test_non_finite_ball_radius_rejected(self, r):
        # 1e308 is finite, but the carve radius 2(c+1)*r overflows
        g = random_graph("rc-nonfinite", 8, 24)
        with pytest.raises(ValueError, match="r must"):
            recursive_cover(g, r, [0, 3], rng=random.Random(0))

    def test_failure_exit_small_core(self, monkeypatch):
        g = random_graph("fx1", 16, 60, strongly_connected=True)

        class Stub:
            # the cover reads the queried ids and the hits per id out of t
            t = 1
            centers = np.arange(16)
            out_hits = in_hits = (np.arange(16) == 0).astype(np.int64)

        monkeypatch.setattr(cover_mod, "estimate_ball_fractions",
                            lambda *a, **kw: Stub())
        cov = recursive_cover(g, 1.0, [0, 1, 2], rng=random.Random(0))
        # core = {0} is under a quarter of 16 vertices, so the run bails
        assert cov.balls == ()
        assert cov.failure_parts == (frozenset(range(16)),)

    def test_failure_exit_giant_part(self, monkeypatch):
        g = random_graph("fx2", 16, 60, strongly_connected=True)

        class Stub:
            t = 1
            centers = np.arange(16)
            out_hits = in_hits = np.zeros(16, dtype=np.int64)

        def giant(g_, verts, centers, r, s, direction, rng):
            members = frozenset(verts)
            return Partition((Cluster(min(members), 1.0, members, 0.0),),
                             frozenset())

        monkeypatch.setattr(cover_mod, "estimate_ball_fractions",
                            lambda *a, **kw: Stub())
        monkeypatch.setattr(cover_mod, "cluster", giant)
        cov = recursive_cover(g, 1.0, [0, 1, 2], rng=random.Random(0))
        assert cov.balls == ()
        assert cov.failure_parts == (frozenset(range(16)),)


class TestSwrtCover:
    def test_single_source_every_trial_same_ball(self):
        g = random_graph("sw1", 12, 40, strongly_connected=True)
        cov = swrt_cover(g, 2, 1.0, [3], rng=random.Random(5))
        assert len(cov.balls) == cov.trials
        want = round_trip_ball(g, None, 3, cov.r).members
        assert all(b.members == want for b in cov.balls)

    def test_radius_and_trial_formulas(self):
        g = random_graph("sw2", 10, 35, strongly_connected=True)
        cov = swrt_cover(g, 2, 1.0, [0, 1, 5, 6], rng=random.Random(1))
        assert cov.r == 6.0 * 1.0 * 2 * math.log(10)
        assert cov.trials == 1 * 4 * _ceil_root(4, 2) * math.ceil(math.log(10))
        assert cov.k == 2 and cov.R == 1.0

    def test_trial_count_reference(self):
        # arithmetic only: s=16, k=2, n=100 under default params
        p = CoverParams()
        assert p.trial_mult * p.c * _ceil_root(16, 2) * math.ceil(math.log(100)) == 80

    def test_trials_scale_with_mult(self):
        g = random_graph("sw3", 8, 25, strongly_connected=True)
        a = swrt_cover(g, 2, 1.0, [0, 1], rng=random.Random(2))
        b = swrt_cover(g, 2, 1.0, [0, 1], CoverParams(trial_mult=2),
                       rng=random.Random(2))
        assert b.trials == 2 * a.trials

    def test_single_vertex_graph(self):
        g = Graph(1, [])
        cov = swrt_cover(g, 2, 3.0, [0], rng=random.Random(0))
        assert cov.r == 3.0
        assert cov.trials == CoverParams().c
        assert all(b.members == frozenset({0}) for b in cov.balls)

    def test_vertex_ball_counts_bounded_by_trials(self):
        g = random_graph("sw4", 15, 55, strongly_connected=True)
        cov = swrt_cover(g, 2, 0.5, [2, 9, 13], rng=random.Random(3))
        counts = cov.vertex_ball_counts()
        assert counts and max(counts.values()) <= cov.trials

    def test_deterministic_under_seed(self):
        g = random_graph("sw5", 10, 32, strongly_connected=True)
        a = swrt_cover(g, 3, 1.0, [0, 4], rng=random.Random(9))
        b = swrt_cover(g, 3, 1.0, [0, 4], rng=random.Random(9))
        assert a == b

    def test_trials_share_root_rows(self, monkeypatch):
        # every carve here takes the whole set, so each of the 32 trials
        # estimates over all 24 vertices; each row is still searched once
        g = random_graph("sw-rows", 24, 96, strongly_connected=True)
        searched = Counter()
        real = est_mod.distance_matrix

        def spy(g_, restrict, sources=None, direction=OUT):
            searched.update((tuple(restrict), direction, v) for v in sources)
            return real(g_, restrict, sources=sources, direction=direction)

        monkeypatch.setattr(est_mod, "distance_matrix", spy)
        cov = swrt_cover(g, 2, 1.0, [0, 5, 11, 19], rng=random.Random(8))
        assert cov.trials == 32
        assert len(searched) == 2 * 24
        assert max(searched.values()) == 1

    @pytest.mark.parametrize("n, chords, R", [(30, 4, 3.0), (40, 6, 4.0)])
    def test_trials_share_root_balls(self, n, chords, R, monkeypatch):
        # on these rings most carves from the full set take only part of
        # it, at several member counts; at n=30 the partition also runs and
        # smaller working sets are carved
        g = ring_with_chords("ring-a", n, chords)
        root = frozenset(range(n))
        carves = []
        searched = Counter()
        real_ball, real_sssp = cover_mod.round_trip_ball, graph_mod.sssp

        def ball_spy(g_, restrict, center, radius, **kw):
            b = real_ball(g_, restrict, center, radius, **kw)
            carves.append((restrict, b))
            return b

        def sssp_spy(g_, restrict, source, direction=OUT):
            if restrict == root:
                searched[source, direction] += 1
            return real_sssp(g_, restrict, source, direction)

        monkeypatch.setattr(cover_mod, "round_trip_ball", ball_spy)
        monkeypatch.setattr(graph_mod, "sssp", sssp_spy)
        cov = swrt_cover(g, 2, R, [0, n // 3, 2 * n // 3], rng=random.Random(3))
        monkeypatch.undo()

        assert [b for _, b in carves] == list(cov.balls)
        at_root = [b for restrict, b in carves if restrict == root]
        assert sum(len(b.members) < n for b in at_root) > len(at_root) / 2
        assert len({len(b.members) for b in at_root}) >= 2
        # every center of a carve from the full set is searched once per
        # direction in the whole cover, however many trials carve from it
        centers = {b.center for b in at_root}
        assert len(centers) < len(at_root)
        assert set(searched) == {(u, d) for u in centers for d in (OUT, IN)}
        assert max(searched.values()) == 1
        for restrict, b in carves:
            fresh = round_trip_ball(g, restrict, b.center, b.radius)
            assert (b.members, b.rt_tree_edges) == (fresh.members, fresh.rt_tree_edges)

    def test_runs_leave_no_reference_cycles(self):
        # a trial's estimates and balls are freed as soon as it ends, not
        # at the next full collection; the ring makes the partition run
        grid = random_graph("gc-grid", 20, 80, strongly_connected=True)
        ring = ring_with_chords("gc-ring", 30, 4)
        gc.collect()
        gc.disable()
        try:
            recursive_cover(ring, 40.0, [0, 8, 19], rng=random.Random(1))
            swrt_cover(grid, 2, 1.0, [1, 7, 13], rng=random.Random(2))
            swrt_cover(ring, 2, 1.0, [0, 8, 19], rng=random.Random(3))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_validation(self):
        g = Graph(4, [(0, 1, 1.0)])
        rng = random.Random(0)
        for bad_k in (1, 0, True, 2.0):
            with pytest.raises(ValueError, match="k must"):
                swrt_cover(g, bad_k, 1.0, [0], rng=rng)
        with pytest.raises(ValueError, match="R must"):
            swrt_cover(g, 2, 0.0, [0], rng=rng)
        with pytest.raises(ValueError, match="non-empty"):
            swrt_cover(g, 2, 1.0, [], rng=rng)
        with pytest.raises(ValueError, match="vertices"):
            swrt_cover(g, 2, 1.0, [7], rng=rng)
        with pytest.raises(ValueError, match="rng"):
            swrt_cover(g, 2, 1.0, [0])

    @pytest.mark.parametrize("R", [math.nan, math.inf, 1e308])
    def test_non_finite_radius_rejected(self, R):
        # each of these used to hang (inf, 1e308 once 6*R*k*ln n overflows)
        # or return empty balls (nan) once two sources force the estimate path
        g = random_graph("sc-nonfinite", 10, 30)
        with pytest.raises(ValueError, match="R must"):
            swrt_cover(g, 2, R, [0, 4], rng=random.Random(0))
