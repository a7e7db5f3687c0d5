import math
import random

import numpy as np
import pytest

from conftest import random_graph
from rtspan.cover import Cover, CoverParams, recursive_cover
from rtspan.graph import OUT, Graph, round_trip_ball
from rtspan.verify import (
    ProbabilityReport,
    check_cover,
    check_stretch,
    oracle_linfty_matrix,
    oracle_one_way_all_pairs,
    oracle_round_trip_all_pairs,
    partition_probability_trial,
    stretch_bound,
)


class TestDistanceOracles:
    def test_three_cycle_hand_values(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 4.0)])
        ids, d = oracle_one_way_all_pairs(g)
        assert ids == [0, 1, 2]
        want = [[0, 1, 3], [6, 0, 2], [4, 5, 0]]
        assert d.tolist() == want
        _, rt = oracle_round_trip_all_pairs(g)
        assert rt.tolist() == [[0, 7, 7], [7, 0, 7], [7, 7, 0]]

    def test_dag_unreachable(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        _, d = oracle_one_way_all_pairs(g)
        assert d[1, 0] == np.inf and d[0, 2] == 2.0
        _, rt = oracle_round_trip_all_pairs(g)
        assert np.isinf(rt[0, 1]) and rt[0, 0] == 0.0

    def test_restrict_blocks_paths(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
        ids, d = oracle_one_way_all_pairs(g, restrict=[0, 2])
        assert ids == [0, 2]
        assert d[0, 1] == 5.0      # the shortcut through 1 is cut away

    def test_edge_indexes_restrict_edges_only(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
        _, d = oracle_one_way_all_pairs(g, edge_indexes=[2])
        assert d[0, 2] == 5.0 and np.isinf(d[0, 1])

    def test_round_trip_symmetry_and_triangle(self):
        # dyadic weights keep the sums exact, so no tolerance is needed
        for i in range(5):
            g = random_graph(f"vo:{i}", 15, 50, strongly_connected=i % 2 == 0)
            _, rt = oracle_round_trip_all_pairs(g)
            assert (rt == rt.T).all()
            for u in range(g.n):
                for v in range(g.n):
                    for w in range(g.n):
                        assert rt[u, v] <= rt[u, w] + rt[w, v]


class TestLinftyOracle:
    def test_two_cycle(self):
        g = Graph(2, [(0, 1, 3.0), (1, 0, 5.0)])
        assert oracle_linfty_matrix(g).tolist() == [[0.0, 5.0], [5.0, 0.0]]

    def test_dag(self):
        g = Graph(2, [(0, 1, 1.0)])
        mat = oracle_linfty_matrix(g)
        assert np.isinf(mat[0, 1]) and np.isinf(mat[1, 0])
        assert mat[0, 0] == mat[1, 1] == 0.0


class TestCheckStretch:
    def test_identity_subgraph(self):
        g = random_graph("vs1", 12, 45, strongly_connected=True)
        rep = check_stretch(g, range(g.m), [0, 5], 1.0)
        assert rep.passed
        assert rep.worst_ratio == 1.0
        assert rep.qualifying_pairs == 2 * g.n
        assert rep.finite_violations == 0 and rep.infinite_violations == 0

    def test_missing_return_edge(self):
        g = Graph(2, [(0, 1, 1.0), (1, 0, 1.0)])
        rep = check_stretch(g, [0], [0], 100.0)
        assert not rep.passed
        assert rep.infinite_violations == 1
        assert rep.worst_ratio == math.inf
        assert rep.worst_pair == (0, 1)

    def test_bound_is_checked(self):
        # dropping the direct 0->1 arc forces the detour through 2:
        # round trip grows from 1+2 to (4+1)+2, a ratio of 7/3
        g = Graph(3, [(0, 1, 1.0), (1, 0, 2.0), (0, 2, 4.0), (2, 1, 1.0)])
        rep = check_stretch(g, [1, 2, 3], [0], 1.5)
        assert rep.finite_violations == 1 and not rep.passed
        assert rep.worst_ratio == 7.0 / 3.0 and rep.worst_pair == (0, 1)
        assert check_stretch(g, [1, 2, 3], [0], 2.5).passed

    def test_source_validation(self):
        g = Graph(2, [])
        with pytest.raises(ValueError, match="not a vertex"):
            check_stretch(g, [], [4], 1.0)

    def test_nan_bound_rejected(self):
        # every ratio > nan is False, so a NaN bound would pass any subgraph
        g = Graph(2, [(0, 1, 1.0), (1, 0, 1.0)])
        with pytest.raises(ValueError, match="bound"):
            check_stretch(g, [0, 1], [0], math.nan)


class TestCheckCover:
    def two_cycle(self):
        return Graph(2, [(0, 1, 3.0), (1, 0, 5.0)])

    def test_single_ball_covers(self):
        g = self.two_cycle()
        ball = round_trip_ball(g, None, 0, 8.0)
        cov = Cover((ball,), (), r=1.0, params=CoverParams(), R=8.0)
        rep = check_cover(g, cov, [0])
        assert rep.passed and rep.uncovered_count == 0
        assert rep.qualifying_pairs == 2
        assert rep.ball_radii == (8.0,)
        assert rep.radius_bound == 2.0 * 5 * 1.0
        assert rep.radius_ok
        assert rep.failure_count == 0

    def test_radius_flag_independent_of_coverage(self):
        g = self.two_cycle()
        ball = round_trip_ball(g, None, 0, 8.0)
        cov = Cover((ball,), (), r=0.5, params=CoverParams(), R=8.0)
        rep = check_cover(g, cov, [0])
        assert rep.passed            # coverage holds
        assert not rep.radius_ok     # realized 8 > 2*(c+1)*0.5 = 5

    def test_empty_cover_misses_everything(self):
        g = self.two_cycle()
        cov = Cover((), (), r=1.0, params=CoverParams(), R=8.0)
        rep = check_cover(g, cov, [0, 1])
        assert not rep.passed
        assert rep.uncovered_count == 4
        assert len(rep.uncovered_sample) == 4
        assert rep.max_ball_radius == 0.0

    def test_failure_part_counts_for_coverage_only(self):
        g = self.two_cycle()
        cov = Cover((), (frozenset({0, 1}),), r=1.0, params=CoverParams(), R=8.0)
        rep = check_cover(g, cov, [0])
        assert rep.passed and rep.failure_count == 1
        assert rep.ball_radii == ()

    def test_radius_query_overrides_cover_R(self):
        g = self.two_cycle()
        cov = Cover((), (), r=1.0, params=CoverParams(), R=8.0)
        rep = check_cover(g, cov, [0], radius=1.0)
        # only the self pair is within round-trip distance 1
        assert rep.qualifying_pairs == 1 and not rep.passed

    @pytest.mark.parametrize("radius", [math.nan, -1.0])
    def test_bad_radius_rejected(self, radius):
        # no distance is <= nan or < 0, so either radius would pass any cover
        g = self.two_cycle()
        cov = Cover((), (), r=1.0, params=CoverParams(), R=8.0)
        with pytest.raises(ValueError, match="radius"):
            check_cover(g, cov, [0], radius=radius)

    def test_cover_without_R_needs_radius(self):
        # a recursive_cover result has no target distance R to default to
        g = self.two_cycle()
        cov = recursive_cover(g, 8.0, [0], rng=random.Random(0))
        assert cov.R is None
        with pytest.raises(ValueError, match="radius"):
            check_cover(g, cov, [0])
        assert check_cover(g, cov, [0], radius=8.0).passed

    def test_source_validation(self):
        g = self.two_cycle()
        cov = Cover((), (), r=1.0, params=CoverParams(), R=8.0)
        with pytest.raises(ValueError, match="source 9 is not a vertex"):
            check_cover(g, cov, [9])


class TestProbability:
    def test_report_math(self):
        rep = ProbabilityReport(trials=100, successes=35, bound=0.5)
        assert rep.rate == 0.35
        assert rep.sigma == pytest.approx(0.05)
        assert rep.passed
        assert not ProbabilityReport(100, 34, 0.5).passed

    def test_zero_trials(self):
        rep = ProbabilityReport(trials=0, successes=0, bound=0.5)
        assert rep.rate == 0.0 and rep.sigma == 0.0 and not rep.passed

    def test_no_centers_always_together(self):
        g = Graph(2, [(0, 1, 1.0), (1, 0, 1.0)])
        rep = partition_probability_trial(g, (0, 1), [], 2.0, 4, OUT, 50,
                                          random.Random(0))
        assert rep.successes == rep.trials == 50
        assert rep.bound == 4.0 ** (-2.0 / 2.0)
        assert rep.passed

    def test_unreachable_pair_rejected(self):
        g = Graph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="round-trip"):
            partition_probability_trial(g, (0, 1), [0], 1.0, 2, OUT, 5,
                                        random.Random(0))

    def test_separation_rate_respects_bound(self):
        g = random_graph("vp", 30, 120, strongly_connected=True)
        rep = partition_probability_trial(g, (3, 7), list(range(30)), 4.0, 4,
                                          OUT, 400, random.Random(1))
        assert rep.trials == 400
        assert rep.passed


class TestStretchBound:
    def test_formula(self):
        assert stretch_bound(2, 100) == 2.0 * (2.0 * 5 * 6.0 * 2 * math.log(100) + 1.0)
        assert stretch_bound(2, 100, c=2) == 2.0 * (2.0 * 3 * 6.0 * 2 * math.log(100) + 1.0)
        assert stretch_bound(3, 1) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            stretch_bound(2, 0)
