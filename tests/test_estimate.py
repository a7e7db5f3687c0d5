import math
import random

import numpy as np
import pytest

import rtspan.estimate as est_mod
from conftest import random_graph
from rtspan.estimate import (FractionEstimates, _randrange_draws, _RowStore, estimate_ball_fractions,
                             sample_count)
from rtspan.graph import IN, OUT, UNREACHABLE, Graph, sssp, vertex_ids


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
    # the estimator takes its samples' random words in bulk; they must give
    # the draws of one rng.randrange(n) call per sample and leave rng in the
    # same state, or every seeded output downstream would change
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 120, 128, 129, 200, 256, 65536, 2 ** 31 + 5])
    def test_bit_identical_to_randrange(self, n):
        for t in (1, 7, 1532):
            for seed in range(4):
                want_rng, got_rng = random.Random(seed), random.Random(seed)
                want = [want_rng.randrange(n) for _ in range(t)]
                assert _randrange_draws(got_rng, n, t).tolist() == want
                assert got_rng.getstate() == want_rng.getstate()

    def test_estimate_samples_are_randrange_draws(self):
        g = random_graph("est-draws", 50, 180)
        verts = vertex_ids(g, range(3, 48, 2))
        want_rng, got_rng = random.Random(12), random.Random(12)
        est = estimate_ball_fractions(g, verts, 2.0, 0.5, got_rng)
        assert est.sample.tolist() == [verts[want_rng.randrange(len(verts))] for _ in range(est.t)]
        assert got_rng.getstate() == want_rng.getstate()


class FixedSequence:
    """rng stub whose draws walk a preset index list over a working set of
    n vertices.  The estimator draws 32-bit words from getrandbits, first
    word least significant, and keeps the top n.bit_length() bits of each,
    as randrange(n) does; the stub puts each preset index in those bits."""

    def __init__(self, seq, n):
        self.seq = list(seq)
        self.n = n
        self.pos = 0

    def getrandbits(self, k):
        assert k % 32 == 0
        out = 0
        for i in range(k // 32):
            v = self.seq[self.pos % len(self.seq)]
            self.pos += 1
            assert 0 <= v < self.n
            out |= v << (32 - self.n.bit_length()) << (32 * i)
        return out


def assert_same_estimates(a, b):
    """Field by field: the scalars, then the four arrays."""
    assert (a.r, a.epsilon, a.t) == (b.r, b.epsilon, b.t)
    for name in ("centers", "sample", "out_hits", "in_hits"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def recount(g, restrict, r, u, sample):
    """Per-sample hit recount straight from two single-source searches."""
    d_out = sssp(g, restrict, u, OUT).dist
    d_in = sssp(g, restrict, u, IN).dist
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
        g = Graph(16, [])
        est = estimate_ball_fractions(g, None, 1.0, 0.125, random.Random(42))
        assert est.t == sample_count(16, 0.125)
        for u in range(16):
            assert abs(est.f_out(u) - 1 / 16) <= est.epsilon
            assert est.f_out(u) == est.f_in(u)   # only the vertex itself is in reach

    def test_counts_are_exact_sample_hits(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        rng = FixedSequence([0, 1, 2, 2], 3)
        est = estimate_ball_fractions(g, None, 1.0, 0.9, rng)
        # t = ceil(5 * (10/9)^2 * ln 3) = 7, sample cycles 0,1,2,2,0,1,2
        assert est.t == 7
        assert est.sample.tolist() == [0, 1, 2, 2, 0, 1, 2]
        assert est.centers.tolist() == [0, 1, 2]
        # within distance 1: out of 0 -> {0,1}; in of 0 -> {0}
        assert est.out_hits[0] == 4 and est.in_hits[0] == 2
        assert est.out_hits[1] == 5 and est.in_hits[1] == 4
        assert est.out_hits[2] == 3 and est.in_hits[2] == 5
        assert np.issubdtype(est.out_hits.dtype, np.integer)
        for u in range(3):
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
        est = estimate_ball_fractions(g, None, 2.0, 0.5, rng)
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
    # working set; eps 0.25 draws hundreds, so every vertex is drawn.
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
