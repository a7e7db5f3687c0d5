import math
import random

import numpy as np
import pytest

import rtspan.estimate as est_mod
from conftest import heap_sssp, random_graph
from rtspan.cli import generate_graph
from rtspan.estimate import FractionEstimates, _RowStore, estimate_ball_fractions, sample_count
from rtspan.graph import IN, OUT, UNREACHABLE, Graph, distance_matrix, vertex_ids


class TestSampleCount:
    def test_reference_value(self):
        assert sample_count(256, 0.125) == 1775

    def test_single_vertex_floor(self):
        assert sample_count(1, 0.5) == 1

    def test_monotone_in_epsilon(self):
        assert sample_count(100, 0.25) > sample_count(100, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_count(0, 0.5)
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                sample_count(16, eps)


class TestRandrangeDraws:
    def test_estimate_samples_are_randrange_draws(self):
        # 23 vertices and eps 0.9 draw t = 20 samples, fewer than the set
        g = random_graph("est-draws", 50, 180)
        verts = vertex_ids(g, range(3, 48, 2))
        want_rng, got_rng = random.Random(12), random.Random(12)
        est = estimate_ball_fractions(g, verts, 2.0, 0.9, got_rng)
        assert est.t == 20 < len(verts)
        assert est.sample.tolist() == [verts[want_rng.randrange(len(verts))] for _ in range(est.t)]
        assert got_rng.getstate() == want_rng.getstate()


class FixedSequence:
    """rng stub whose randrange(n) draws walk a preset index list over a
    working set of n vertices."""

    def __init__(self, seq, n):
        self.seq = list(seq)
        self.n = n
        self.pos = 0

    def randrange(self, n):
        assert n == self.n
        v = self.seq[self.pos % len(self.seq)]
        self.pos += 1
        return v


def assert_same_estimates(a, b):
    """Field by field: the scalars, then the four arrays."""
    assert (a.r, a.epsilon, a.t) == (b.r, b.epsilon, b.t)
    for name in ("centers", "sample", "out_hits", "in_hits"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def recount(g, restrict, r, u, sample):
    """Per-sample hit recount straight from two single-source heap
    searches, independent of the scipy rows the estimate reads."""
    d_out, _ = heap_sssp(g, restrict, u, OUT)
    d_in, _ = heap_sssp(g, restrict, u, IN)
    fo = sum(1 for v in sample if d_out[v] is not UNREACHABLE and d_out[v] <= r)
    fi = sum(1 for v in sample if d_in[v] is not UNREACHABLE and d_in[v] <= r)
    return fo, fi


class TestEstimate:
    def test_complete_graph_all_ones(self):
        n = 6
        edges = [(u, v, 1.0) for u in range(n) for v in range(n) if u != v]
        g = Graph(n, edges)
        est = estimate_ball_fractions(g, None, 1.0, 0.5, random.Random(1))
        for u in range(n):
            assert est.f_out(u) == 1.0 and est.f_in(u) == 1.0

    def test_edgeless_graph_near_uniform(self):
        # 40 vertices and eps 0.9 draw t = 23 samples, fewer than the set
        g = Graph(40, [])
        est = estimate_ball_fractions(g, None, 1.0, 0.9, random.Random(42))
        assert est.t == sample_count(40, 0.9) < 40
        assert est.out_hits.sum() == est.in_hits.sum() == est.t
        for u in range(40):
            assert abs(est.f_out(u) - 1 / 40) <= est.epsilon
            assert est.f_out(u) == est.f_in(u)   # only the vertex itself is in reach

    def test_counts_are_exact_sample_hits(self):
        # the path 0 -> 1 -> 2 among 17 isolated vertices: a set of 3 would
        # be counted exactly, as no eps < 1 draws fewer than 3 samples
        g = Graph(20, [(0, 1, 1.0), (1, 2, 1.0)])
        rng = FixedSequence([0, 1, 2, 2], 20)
        est = estimate_ball_fractions(g, None, 1.0, 0.9, rng)
        # t = ceil(5 * (10/9)^2 * ln 20) = 19; the sample cycles 0,1,2,2,
        # so 0 and 1 are drawn 5 times each and 2 is drawn 9 times
        assert est.t == 19
        assert est.sample.tolist() == [0, 1, 2, 2] * 4 + [0, 1, 2]
        assert est.centers.tolist() == list(range(20))
        # within distance 1: out of 0 -> {0,1}; in of 0 -> {0}
        assert est.out_hits[0] == 10 and est.in_hits[0] == 5
        assert est.out_hits[1] == 14 and est.in_hits[1] == 10
        assert est.out_hits[2] == 9 and est.in_hits[2] == 14
        assert not est.out_hits[3:].any() and not est.in_hits[3:].any()
        assert np.issubdtype(est.out_hits.dtype, np.integer)
        for u in range(20):
            assert est.f_out(u) * est.t == est.out_hits[u]

    def test_one_vertex_query_matches_recount(self):
        g = random_graph("est-q", 30, 110)
        rng = random.Random(9)
        est = estimate_ball_fractions(g, None, 1.5, 0.5, rng)
        fo, fi = recount(g, None, 1.5, 7, est.sample)
        assert est.centers[7] == 7
        assert est.out_hits[7] == fo and est.in_hits[7] == fi

    def test_all_vertex_query_matches_recount(self):
        g = random_graph("est-s", 40, 150)
        rng = FixedSequence([0, 3, 5], 40)      # 3 distinct draws, 40 vertices
        est = estimate_ball_fractions(g, None, 2.0, 0.9, rng)
        assert est.t == 23 < 40
        assert len(set(est.sample.tolist())) == 3
        assert est.centers.tolist() == list(range(40))
        for u in range(40):
            fo, fi = recount(g, None, 2.0, u, est.sample)
            assert est.out_hits[u] == fo, u
            assert est.in_hits[u] == fi, u

    def test_restrict_hides_outside_vertices(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        rng = FixedSequence([0, 1], 2)
        est = estimate_ball_fractions(g, [0, 1], 5.0, 0.9, rng)
        assert set(est.sample.tolist()) <= {0, 1}
        # 2 is cut away, so nothing comes back into 0
        assert est.in_hits[0] == np.count_nonzero(est.sample == 0)
        assert est.out_hits[0] == est.t

    def test_deterministic_under_seed(self):
        g = random_graph("est-d", 25, 90)
        a = estimate_ball_fractions(g, None, 1.25, 0.5, random.Random(3))
        b = estimate_ball_fractions(g, None, 1.25, 0.5, random.Random(3))
        assert_same_estimates(a, b)

    def test_validation(self):
        g = Graph(4, [(0, 1, 1.0)])
        rng = random.Random(0)
        with pytest.raises(ValueError, match="r must"):
            estimate_ball_fractions(g, None, 0.0, 0.5, rng)
        for r in (math.nan, math.inf):
            with pytest.raises(ValueError, match="r must"):
                estimate_ball_fractions(g, None, r, 0.5, rng)
        with pytest.raises(ValueError, match="epsilon"):
            estimate_ball_fractions(g, None, 1.0, 1.0, rng)
        with pytest.raises(ValueError, match="restrict"):
            estimate_ball_fractions(g, [], 1.0, 0.5, rng)

    def test_unqueried_vertex_has_no_fraction(self):
        g = random_graph("est-q", 30, 110)
        est = estimate_ball_fractions(g, [3, 7], 1.5, 0.5, random.Random(1))
        for u in (0, 5, 29):
            with pytest.raises(KeyError):
                est.f_out(u)
            with pytest.raises(KeyError):
                est.f_in(u)


class TestExact:
    # t >= |verts|: 30 vertices at eps 0.5 would draw t = 69 samples, and
    # 20 of them at eps 0.125 would draw 959
    @pytest.mark.parametrize("restrict, eps", [(None, 0.5), (range(5, 25), 0.125)],
                             ids=["whole", "middle"])
    def test_counts_every_vertex_once(self, restrict, eps):
        g = random_graph("est-exact", 30, 110)
        verts = vertex_ids(g, restrict)
        rng = random.Random(6)
        state = rng.getstate()
        est = estimate_ball_fractions(g, restrict, 1.5, eps, rng)
        assert rng.getstate() == state
        assert sample_count(len(verts), eps) >= len(verts)
        assert est.t == len(verts)
        assert np.array_equal(est.sample, est.centers)
        # row i: d(verts[i], .) over the working set
        d = distance_matrix(g, verts, sources=verts, direction=OUT)
        assert est.out_hits.tolist() == (d <= 1.5).sum(axis=1).tolist()
        assert est.in_hits.tolist() == (d <= 1.5).sum(axis=0).tolist()

    def test_shared_store_memoizes(self, monkeypatch):
        g = random_graph("est-exact", 30, 110)
        calls = []
        real = est_mod.distance_matrix

        def spy(g_, restrict_, sources=None, direction=OUT):
            calls.append(direction)
            return real(g_, restrict_, sources=sources, direction=direction)

        monkeypatch.setattr(est_mod, "distance_matrix", spy)
        store = _RowStore(g, vertex_ids(g, None))
        first = estimate_ball_fractions(g, None, 1.5, 0.5, random.Random(1), _rows=store)
        assert calls == [OUT, IN]
        assert estimate_ball_fractions(g, None, 1.5, 0.5, random.Random(2), _rows=store) is first
        other = estimate_ball_fractions(g, None, 3.0, 0.5, random.Random(3), _rows=store)
        assert other is not first and calls == [OUT, IN]  # same rows, new radius
        assert not first.out_hits.flags.writeable


class TestSampledAccuracy:
    def test_within_eps(self):
        # criterion 5's gate on the sampled path: 256 vertices at eps 0.5
        # draw t = 111 samples, fewer than the working set
        g = generate_graph(256, 1024, random.Random("crit5:graph"), strongly_connected=True)
        d_out = distance_matrix(g, None, sources=range(256), direction=OUT)
        finite = d_out[np.isfinite(d_out) & (d_out > 0)]
        r = float(np.percentile(finite, 25))
        eps = 0.5
        exact_out = (d_out <= r).sum(axis=1) / 256.0
        exact_in = (d_out <= r).sum(axis=0) / 256.0
        good = 0
        for i in range(100):
            est = estimate_ball_fractions(g, None, r, eps, random.Random(f"sampled:{i}"))
            assert est.t == 111
            if (np.abs(est.out_hits / est.t - exact_out).max() <= eps
                    and np.abs(est.in_hits / est.t - exact_in).max() <= eps):
                good += 1
        assert good >= 99


class TestSearchBound:
    # n = 40 and eps = 0.9 draw t = 23 samples, fewer than n, so the bound
    # |distinct samples| <= t is tighter than searching every vertex
    def test_searches_only_distinct_sample_rows(self, monkeypatch):
        g = random_graph("est-bound", 40, 170)
        searched = {OUT: [], IN: []}
        real = est_mod.distance_matrix

        def spy(g_, restrict_, sources=None, direction=OUT):
            searched[direction].extend(sources)
            return real(g_, restrict_, sources=sources, direction=direction)

        monkeypatch.setattr(est_mod, "distance_matrix", spy)
        est = estimate_ball_fractions(g, None, 2.0, 0.9, random.Random(4))
        assert est.t == 23 < g.n
        distinct = set(est.sample.tolist())
        for direction in (OUT, IN):
            assert sorted(searched[direction]) == sorted(distinct)
            assert len(searched[direction]) <= est.t


class TestSharedRows:
    # (r, epsilon, seed): eps 0.9 draws t = 23 samples, fewer than the
    # working set; eps 0.5 and 0.25 would draw more than it holds, so those
    # estimates count every vertex once and the store keeps them.
    # Seed 8 repeats the radius before it and searches rows the store lacks,
    # so a [d <= r] matrix kept from seed 3 would be stale.
    CASES = [
        (2.0, 0.9, 1),
        (1.0, 0.9, 2),
        (2.0, 0.9, 3),
        (2.0, 0.9, 8),
        (4.0, 0.5, 4),
        (1.5, 0.25, 5),
        (2.5, 0.9, 6),
        (2.0, 0.25, 7),
    ]

    @pytest.mark.parametrize("restrict", [None, range(0, 40, 2), range(5, 36)],
                             ids=["whole", "evens", "middle"])
    def test_shared_store_equals_fresh_estimates(self, restrict, monkeypatch):
        g = random_graph("est-rows", 40, 170)
        verts = vertex_ids(g, restrict)
        fresh = [estimate_ball_fractions(g, restrict, r, eps, random.Random(seed))
                 for r, eps, seed in self.CASES]

        searched = []
        real = est_mod.distance_matrix

        def spy(g_, restrict_, sources=None, direction=OUT):
            searched.extend((direction, v) for v in sources)
            return real(g_, restrict_, sources=sources, direction=direction)

        monkeypatch.setattr(est_mod, "distance_matrix", spy)
        store = _RowStore(g, verts)
        for (r, eps, seed), want in zip(self.CASES, fresh):
            got = estimate_ball_fractions(g, restrict, r, eps, random.Random(seed), _rows=store)
            assert_same_estimates(got, want)
        # every row is searched once, and only rows of the working set
        assert len(searched) == len(set(searched))
        assert {v for _, v in searched} <= set(verts)
        assert {d for d, _ in searched} == {OUT, IN}

    def test_store_of_another_working_set_rejected(self):
        g = random_graph("est-rows", 40, 170)
        store = _RowStore(g, vertex_ids(g, range(10)))
        with pytest.raises(ValueError, match="another working set"):
            estimate_ball_fractions(g, None, 1.0, 0.5, random.Random(0), _rows=store)
