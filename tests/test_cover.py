import gc
import hashlib
import math
import random
from collections import Counter

import numpy as np
import pytest

import rtspan.cover as cover_mod
import rtspan.estimate as est_mod
import rtspan.spanner as spanner_mod
from conftest import edge_subgraph, random_graph, ring_with_chords
from rtspan.cover import Cover, CoverParams, _ceil_root, recursive_cover, swrt_cover
from rtspan.graph import IN, OUT, Graph, round_trip_ball, sssp
from rtspan.partition import Cluster, Partition
from rtspan.verify import check_cover


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

    def test_small_core_is_carved(self, monkeypatch):
        g = random_graph("fx1", 16, 60, strongly_connected=True)

        class Stub:
            # the cover reads the queried ids and the hits per id out of t
            t = 1
            centers = np.arange(16)
            out_hits = in_hits = (np.arange(16) == 0).astype(np.int64)

        monkeypatch.setattr(cover_mod, "estimate_ball_fractions",
                            lambda *a, **kw: Stub())
        cov = recursive_cover(g, 1.0, [0, 1, 2], rng=random.Random(0))
        # core = {0} is a sixteenth of the set, yet it is carved like any
        # non-empty core; a carve radius in [2cr, 2(c+1)r] = [8, 10] holds
        # this whole graph, so the run ends after the one ball
        assert [b.center for b in cov.balls] == [0]
        assert cov.balls[0].members == frozenset(range(16))
        assert cov.failure_parts == ()

    def test_failure_exit_giant_part(self, monkeypatch):
        g = random_graph("fx2", 16, 60, strongly_connected=True)

        class Stub:
            t = 1
            centers = np.arange(16)
            out_hits = in_hits = np.zeros(16, dtype=np.int64)

        def giant(g_, verts, centers, r, s, direction, rng, **kw):
            members = frozenset(verts)
            return Partition((Cluster(min(members), 1.0, members, 0.0),),
                             frozenset())

        monkeypatch.setattr(cover_mod, "estimate_ball_fractions",
                            lambda *a, **kw: Stub())
        monkeypatch.setattr(cover_mod, "cluster", giant)
        cov = recursive_cover(g, 1.0, [0, 1, 2], rng=random.Random(0))
        assert cov.balls == ()
        assert cov.failure_parts == (frozenset(range(16)),)

    def test_one_search_per_direction_per_working_set(self, monkeypatch):
        # every working set with two or more sources has one row store for
        # its estimate, carve and partition: the partition runs here at the
        # root and below it, and reads the rows the estimate searched
        g = ring_with_chords("ring-a", 40, 6)
        searched = Counter()
        real = est_mod.distance_matrix

        def spy(g_, restrict, sources=None, direction=OUT):
            searched[frozenset(restrict), direction] += 1
            return real(g_, restrict, sources=sources, direction=direction)

        parts = []
        real_cluster = cover_mod.cluster

        def cluster_spy(g_, verts, *args, **kwargs):
            parts.append(len(verts))
            return real_cluster(g_, verts, *args, **kwargs)

        monkeypatch.setattr(est_mod, "distance_matrix", spy)
        monkeypatch.setattr(cover_mod, "cluster", cluster_spy)
        for seed in range(4):
            searched.clear()
            recursive_cover(g, 25.0, [0, 7, 13, 26, 33], rng=random.Random(seed))
            assert max(searched.values()) == 1
        assert g.n in parts and any(n < g.n for n in parts)


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

    def test_small_root_core_ring_puts_close_pairs_in_balls(self):
        # every trial's root core holds 2 of the 32 vertices; carving it,
        # rather than giving up the whole set as a failure part, is what
        # puts the 12 close pairs (4 of them between ring neighbours) in balls
        g = ring_with_chords("small-core-10", 32, 4)
        src = list(range(0, 32, 4))
        cov = swrt_cover(g, 2, 4.0, src, rng=random.Random(0))
        rep = check_cover(g, cov, src)
        assert cov.failure_parts == () and rep.failure_count == 0
        assert rep.qualifying_pairs == 12
        assert rep.passed and rep.radius_ok

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

    def test_root_estimate_once_per_cover(self, monkeypatch):
        # the whole ring is counted exactly (t >= 40), so the first trial's
        # root estimate is kept and every later trial gets the same object;
        # the partition runs here, so smaller working sets are estimated too
        g = ring_with_chords("ring-a", 40, 6)
        root_calls = []
        real = est_mod.distance_matrix

        def spy(g_, restrict, sources=None, direction=OUT):
            if len(restrict) == g_.n:
                root_calls.append(direction)
            return real(g_, restrict, sources=sources, direction=direction)

        root_ests, sub_ests = [], 0
        real_est = cover_mod.estimate_ball_fractions

        def est_spy(g_, restrict, *args, **kwargs):
            nonlocal sub_ests
            est = real_est(g_, restrict, *args, **kwargs)
            if len(restrict) == g_.n:
                root_ests.append(est)
            else:
                sub_ests += 1
            return est

        monkeypatch.setattr(est_mod, "distance_matrix", spy)
        monkeypatch.setattr(cover_mod, "estimate_ball_fractions", est_spy)
        cov = swrt_cover(g, 2, 2.0, [0, 13, 26], rng=random.Random(3))
        assert cov.trials == len(root_ests) == 32 and sub_ests == 15
        assert root_calls == [OUT, IN]
        assert all(est is root_ests[0] for est in root_ests)
        assert root_ests[0].t == g.n

    @pytest.mark.parametrize("n, chords, R", [(30, 4, 3.0), (40, 6, 4.0)])
    def test_trials_share_root_balls(self, n, chords, R, monkeypatch):
        # on these rings most carves from the full set take only part of
        # it, at several member counts; at n=30 the partition also runs and
        # smaller working sets are carved
        g = ring_with_chords("ring-a", n, chords)
        root = frozenset(range(n))
        carves = []
        searches = []
        real_ball, real_dm = cover_mod.round_trip_ball, est_mod.distance_matrix

        def ball_spy(g_, restrict, center, radius, **kw):
            b = real_ball(g_, restrict, center, radius, **kw)
            carves.append((restrict, b))
            return b

        def dm_spy(g_, restrict, sources=None, direction=OUT):
            searches.append((frozenset(restrict), tuple(sources), direction))
            return real_dm(g_, restrict, sources=sources, direction=direction)

        monkeypatch.setattr(cover_mod, "round_trip_ball", ball_spy)
        monkeypatch.setattr(est_mod, "distance_matrix", dm_spy)
        cov = swrt_cover(g, 2, R, [0, n // 3, 2 * n // 3], rng=random.Random(3))
        monkeypatch.undo()

        assert [b for _, b in carves] == list(cov.balls)
        at_root = [b for restrict, b in carves if restrict == root]
        assert sum(len(b.members) < n for b in at_root) > len(at_root) / 2
        assert len({len(b.members) for b in at_root}) >= 2
        assert len({b.center for b in at_root}) < len(at_root)
        # the exact root estimate searches every root row once per direction
        # in the whole cover, and carves from the full set search nothing
        everyone = tuple(range(n))
        at_root_searches = [(s, d) for restrict, s, d in searches if restrict == root]
        assert at_root_searches == [(everyone, OUT), (everyone, IN)]
        # a one-source working set searches its center's two rows once in
        # the whole cover, however many trials carve from it
        one_row = Counter((restrict, s) for restrict, s, _ in searches if len(s) == 1)
        assert set(one_row.values()) <= {2}
        if n == 30:  # where the partition leaves one-source working sets
            repeats = sum(1 for restrict, b in carves if (restrict, (b.center,)) in one_row)
            assert repeats > len(one_row) > 0
        for restrict, b in carves:
            fresh = round_trip_ball(g, restrict, b.center, b.radius)
            assert (b.members, b.rt_tree_edges) == (fresh.members, fresh.rt_tree_edges)

    def test_memo_keeps_root_and_one_source_carves_only(self, monkeypatch):
        # multi-source working sets below the root carve once each, so the
        # memo shared by every trial does not keep them
        g = ring_with_chords("ring-b", 60, 6)
        sources = {0, 15, 30, 45}
        root = frozenset(range(60))
        carved = []
        real_ball = cover_mod.round_trip_ball

        def ball_spy(g_, restrict, center, radius, **kw):
            carved.append((restrict, center))
            return real_ball(g_, restrict, center, radius, **kw)

        monkeypatch.setattr(cover_mod, "round_trip_ball", ball_spy)
        rows = est_mod._RowStore(g, list(range(60)))
        swrt_cover(g, 2, 3.0, sources, rng=random.Random(3), _root_rows=rows)
        monkeypatch.undo()

        multi = {key for key in carved if key[0] != root and len(key[0] & sources) > 1}
        assert multi and not multi & rows.balls.keys()
        assert set(rows.balls) == set(carved) - multi

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


def all_trials(g, k, R, sources, params, seed, monkeypatch):
    """(got, want, runs): the cover swrt_cover gives, the reference that
    runs recursive_cover once per trial whatever the first trial shows,
    and the number of recursive_cover runs the first one made."""
    calls = []
    real = cover_mod.recursive_cover

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cover_mod, "recursive_cover", spy)
    got = swrt_cover(g, k, R, sources, params, rng=random.Random(seed))
    got_calls = len(calls)
    monkeypatch.setattr(cover_mod, "_decides_all", lambda *args: False)
    want = swrt_cover(g, k, R, sources, params, rng=random.Random(seed))
    assert len(calls) - got_calls == want.trials
    monkeypatch.undo()
    return got, want, got_calls


def assert_same_cover(got, want):
    """Field by field, each ball's radius and tree edges included."""
    assert len(got.balls) == len(want.balls)
    for a, b in zip(got.balls, want.balls):
        assert (a.center, a.radius, a.members, a.rt_tree_edges) == \
            (b.center, b.radius, b.members, b.rt_tree_edges)
    assert got.failure_parts == want.failure_parts
    assert (got.r, got.params, got.k, got.R, got.trials, got.max_depth) == \
        (want.r, want.params, want.k, want.R, want.trials, want.max_depth)
    assert got == want


class TestDecidedCover:
    def test_decided_graph_runs_one_trial(self, monkeypatch):
        # every carve takes the whole set, and the exact root estimate
        # (t >= 24) draws nothing, so the first trial decides all 32
        g = random_graph("sw-rows", 24, 96, strongly_connected=True)
        got, want, runs = all_trials(g, 2, 1.0, [0, 5, 11, 19], CoverParams(), 8, monkeypatch)
        assert_same_cover(got, want)
        assert runs == 1 and got.trials == 32 and got.max_depth == 2
        assert len({b.radius for b in got.balls}) == got.trials
        assert all(2 * 4 * got.r <= b.radius <= 2 * 5 * got.r for b in got.balls)

    def test_decided_cover_searches_and_estimates_once(self, monkeypatch):
        g = random_graph("sw-rows", 24, 96, strongly_connected=True)
        counts = Counter()
        real_est, real_ball = cover_mod.estimate_ball_fractions, cover_mod.round_trip_ball
        real_dm = est_mod.distance_matrix

        def count(name, fn):
            def spy(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(cover_mod, "estimate_ball_fractions", count("estimate", real_est))
        monkeypatch.setattr(cover_mod, "round_trip_ball", count("carve", real_ball))
        monkeypatch.setattr(est_mod, "distance_matrix", count("search", real_dm))
        swrt_cover(g, 2, 1.0, [0, 5, 11, 19], rng=random.Random(8))
        assert counts == {"estimate": 1, "carve": 1, "search": 2}

    @pytest.mark.parametrize("case", ["ring", "whole-first-trial", "sampled-root"])
    def test_undecided_cover_runs_every_trial(self, case, monkeypatch):
        # ring: the partition runs.  whole-first-trial: the first trial
        # carves the whole ring, but from a vertex whose round trips exceed
        # 2cr, so a smaller draw would not.  sampled-root: eps = 0.9 gives
        # t < n, so every root estimate draws its own sample.
        g, R, sources, params = {
            "ring": (ring_with_chords("ring-a", 40, 6), 2.0, [0, 13, 26], CoverParams()),
            "whole-first-trial": (ring_with_chords("dec:0", 16, 3), 2.0, [0, 5, 10], CoverParams()),
            "sampled-root": (random_graph("sw-sampled", 40, 160), 1.0, [0, 9, 27],
                             CoverParams(epsilon=0.9)),
        }[case]
        seed = 0 if case == "whole-first-trial" else 8
        got, want, runs = all_trials(g, 2, R, sources, params, seed, monkeypatch)
        assert_same_cover(got, want)
        assert runs == got.trials
        if case == "whole-first-trial":
            assert len(got.balls[0].members) == g.n and not all(len(b.members) == g.n for b in got.balls)
        if case == "sampled-root":
            assert est_mod.sample_count(g.n, 0.9) < g.n
            assert all(len(b.members) == g.n for b in got.balls)

    @pytest.mark.parametrize("graph", ["grid", "ring"])
    def test_one_source_cover_runs_one_trial(self, graph, monkeypatch):
        # every trial carves from the one source at radius r and draws
        # nothing, so the first trial decides them all
        g, R, source = {"grid": (random_graph("sw-rows", 24, 96), 1.0, 5),
                        "ring": (ring_with_chords("ring-a", 40, 6), 4.0, 15)}[graph]
        got, want, runs = all_trials(g, 2, R, [source], CoverParams(), 8, monkeypatch)
        assert_same_cover(got, want)
        assert runs == 1 and got.trials == 16 and got.max_depth == 1
        assert all(b.radius == got.r and b.members == got.balls[0].members for b in got.balls)
        if graph == "grid":
            assert len(got.balls[0].members) == g.n
        else:
            assert 1 < len(got.balls[0].members) < g.n

    def test_grid_weight_spanner_covers_are_decided(self, monkeypatch):
        # the windows of a grid-weight spanner build are each covered by
        # one trial, and the output equals the one with every trial run
        g = random_graph("dec-spanner", 60, 240)
        src = [3, 17, 40, 52]
        decisions = []
        real = cover_mod._decides_all

        def spy(*args):
            decisions.append(real(*args))
            return decisions[-1]

        monkeypatch.setattr(cover_mod, "_decides_all", spy)
        got = spanner_mod.swrt_spanner(g, 2, src, rng=random.Random(4))
        monkeypatch.setattr(cover_mod, "_decides_all", lambda *args: False)
        want = spanner_mod.swrt_spanner(g, 2, src, rng=random.Random(4))
        assert decisions and all(decisions)
        assert (got.edges, got.provenance, got.stats) == (want.edges, want.provenance, want.stats)


def eager_cluster(monkeypatch):
    """Wrap the cover's cluster so that it returns Partition(clusters,
    residual) built from the Cluster objects; returns the call log."""
    calls = []
    real = cover_mod.cluster

    def eager(*args, **kwargs):
        p = real(*args, **kwargs)
        calls.append(len(p.clusters))
        return Partition(p.clusters, p.residual)

    monkeypatch.setattr(cover_mod, "cluster", eager)
    return calls


class TestLabelPartitions:
    """The cover reads a partition's labels; it makes the same cover from
    a partition built from Cluster objects, and builds none itself."""

    RINGS = [("ring-a", 40, 6, 2.0), ("ring-b", 60, 6, 3.0), ("ring-c", 80, 8, 2.0), ("ring-d", 50, 4, 4.0)]
    # cover_digest of seeds 0, 1, 2, recorded while the cover still built
    # every Cluster and pushed every part, source-free ones included
    RECORDED = {
        "ring-a": ["d1a3c8619d650a3d", "f00b04765739497d", "2211a0bbdf4e6558"],
        "ring-b": ["c58a4ffc74f7a5e1", "d5792864b2d136fe", "51a1f8619a9f384b"],
        "ring-c": ["405b4bac259792a7", "cbcbcfe791cb8fec", "fd38c73a4b0172f0"],
        "ring-d": ["e892776352cedb59", "0690b4ae51acb0a8", "284e314434741c4c"],
    }

    @staticmethod
    def cover_digest(cov):
        text = repr(([(b.center, b.radius, sorted(b.members), sorted(b.rt_tree_edges)) for b in cov.balls],
                     [sorted(f) for f in cov.failure_parts], cov.trials, cov.max_depth))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @pytest.mark.parametrize("tag, n, chords, R", RINGS, ids=[r[0] for r in RINGS])
    def test_ring_covers_match_recorded(self, tag, n, chords, R):
        # weights are powers of two, so every distance, and the digest, is
        # exact; a part pushed out of parts() order moves the draws after it
        g = ring_with_chords(tag, n, chords)
        sources = list(range(0, n, n // 5))
        got = [self.cover_digest(swrt_cover(g, 2, R, sources, rng=random.Random(seed))) for seed in range(3)]
        assert got == self.RECORDED[tag]

    @pytest.mark.parametrize("tag, n, chords, R", RINGS, ids=[r[0] for r in RINGS])
    def test_labels_equal_eager_partitions(self, tag, n, chords, R, monkeypatch):
        g = ring_with_chords(tag, n, chords)
        sources = list(range(0, n, n // 5))
        for seed in range(3):
            got = swrt_cover(g, 2, R, sources, rng=random.Random(seed))
            calls = eager_cluster(monkeypatch)
            want = swrt_cover(g, 2, R, sources, rng=random.Random(seed))
            monkeypatch.undo()
            assert calls and max(calls) > 1
            assert_same_cover(got, want)

    def test_ring_cover_builds_no_cluster(self, monkeypatch):
        import rtspan.partition as partition_mod

        built = []

        class Counted(Cluster):
            def __init__(self, center, *rest):
                built.append(center)
                super().__init__(center, *rest)

        g = ring_with_chords("ring-a", 40, 6)
        monkeypatch.setattr(partition_mod, "Cluster", Counted)
        calls = []
        real = cover_mod.cluster

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cover_mod, "cluster", spy)
        swrt_cover(g, 2, 2.0, [0, 13, 26], rng=random.Random(3))
        assert calls and built == []
        # reading a partition's clusters builds them, through the same name
        p = partition_mod.cluster(g, None, [0, 13, 26], 20.0, 4, rng=random.Random(0))
        assert built == []
        assert len(p.clusters) == len(built) > 0
