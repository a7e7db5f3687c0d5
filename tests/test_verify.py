import dataclasses
import math
import random

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from conftest import random_graph
from rtspan.cover import Cover, CoverParams, recursive_cover, swrt_cover
from rtspan.graph import OUT, BallResult, Graph, round_trip_ball
from rtspan.spanner import swrt_spanner
from rtspan.verify import (
    CoverReport,
    ProbabilityReport,
    StretchReport,
    _scc_labels,
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

    @pytest.mark.parametrize("bad", [-1, 3, 10])
    def test_edge_index_outside_range_rejected(self, bad):
        # -1 would otherwise index the last edge
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
        with pytest.raises(ValueError, match="edge index"):
            oracle_one_way_all_pairs(g, edge_indexes=[0, bad])

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


    @pytest.mark.parametrize("seed", range(4))
    def test_scc_labels_match_edge_loop(self, seed):
        # parallel edges and self-loops; thresholds below the lightest
        # weight, at every weight, between weights and at the heaviest
        rng = random.Random(f"scc-labels:{seed}")
        n = rng.randrange(2, 30)
        edges = [(rng.randrange(n), rng.randrange(n), rng.choice([1.0, 1.5, 2.0, 7.25]))
                 for _ in range(rng.randrange(1, 4 * n))]
        edges += [(u, v, rng.choice([1.0, 9.0])) for u, v, _ in rng.sample(edges, len(edges) // 3)]
        edges += [(v, v, 0.5) for v in rng.sample(range(n), min(n, 2))]
        g = Graph(n, edges)
        weights = sorted({w for _, _, w in edges})
        for x in (-math.inf, 0.25, *weights, 1.25, 8.0, weights[-1], math.inf):
            rows = [u for u, _, w in g.edges if w <= x]
            cols = [v for _, v, w in g.edges if w <= x]
            mat = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
            _, want = connected_components(mat, directed=True, connection="strong")
            assert _scc_labels(g, x).tolist() == want.tolist()


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

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_edge_index_outside_range_rejected(self, bad):
        # the subgraph lacks edge 3 (2 -> 1), so the pair (0, 2) has no
        # round trip in it; -1 must not stand in for edge 3
        g = Graph(3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
        assert not check_stretch(g, [0, 1, 2, 2], [0], 1.0).passed
        with pytest.raises(ValueError, match="edge index"):
            check_stretch(g, [0, 1, 2, bad], [0], 1.0)

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

    def test_failure_part_does_not_count_for_coverage(self):
        # a failure part has no radius guarantee and adds no spanner edge,
        # so a pair that shares only a failure part is uncovered
        g = self.two_cycle()
        cov = Cover((), (frozenset({0, 1}),), r=1.0, params=CoverParams(), R=8.0)
        rep = check_cover(g, cov, [0])
        assert not rep.passed and rep.failure_count == 1
        assert rep.uncovered_count == 2
        assert rep.uncovered_sample == ((0, 0), (0, 1))
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

    @pytest.mark.parametrize("bad_edge", [-1, 2])
    def test_tree_edge_outside_range_rejected(self, bad_edge):
        # a certifying tree that names edge -1 is rejected, not read as
        # the last edge
        g = self.two_cycle()
        ball = round_trip_ball(g, None, 0, 8.0)
        bad = BallResult(ball.center, ball.radius, ball.members, frozenset({0, bad_edge}))
        cov = Cover((bad,), (), r=1.0, params=CoverParams(), R=8.0)
        with pytest.raises(ValueError, match="edge index"):
            check_cover(g, cov, [0])

    def test_member_off_its_tree_has_infinite_radius(self):
        # the tree reaches vertex 2 but not member 1, so the ball certifies
        # no round trip to 1; the radius must not be read at vertex 2
        g = Graph(3, [(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1.0), (2, 0, 1.0)])
        ball = BallResult(0, 2.0, frozenset({0, 1}), frozenset({2, 3}))
        rep = check_cover(g, Cover((ball,), (), r=1.0, params=CoverParams(), R=2.0), [0])
        assert rep.ball_radii == (math.inf,) and not rep.radius_ok

    def test_source_validation(self):
        g = self.two_cycle()
        cov = Cover((), (), r=1.0, params=CoverParams(), R=8.0)
        with pytest.raises(ValueError, match="source 9 is not a vertex"):
            check_cover(g, cov, [9])


def _messy_graph(i, grid):
    """Seeded graph number i with n <= 60 (n = 1 every 20th), self-loops
    and parallel edges; even i add a cycle through every vertex, so half
    are strongly connected.  grid weights are multiples of 1/16 in [1, 4],
    exact under any summation order; otherwise continuous in [1, 1000]."""
    rng = random.Random(f"messy:{grid}:{i}")
    n = 1 if i % 20 == 0 else rng.randint(2, 60)
    weight = (lambda: rng.randint(16, 64) / 16) if grid else (lambda: rng.uniform(1.0, 1000.0))
    edges = [(rng.randrange(n), rng.randrange(n), weight()) for _ in range(rng.randint(0, 3 * n))]
    edges += [(u, v, weight()) for u, v, _ in rng.sample(edges, len(edges) // 4)]
    edges += [(v, v, weight()) for v in rng.sample(range(n), min(n, 3))]
    if i % 2 == 0:
        order = rng.sample(range(n), n)
        edges += [(order[j - 1], order[j], weight()) for j in range(n)]
    rng.shuffle(edges)
    return Graph(n, edges), rng


def _fw_stretch_report(g, subgraph_edges, sources, bound):
    """check_stretch's report, pair by pair from the Floyd-Warshall oracle,
    and a function giving the oracle's ratio of any pair."""
    _, full = oracle_round_trip_all_pairs(g)
    _, sub = oracle_round_trip_all_pairs(g, edge_indexes=subgraph_edges)
    qual = fin = inf = 0
    worst_ratio, worst_pair = 1.0, None
    for s in sorted(set(sources)):
        for v in range(g.n):
            a, b = full[s, v], sub[s, v]
            if a == math.inf:
                continue
            qual += 1
            ratio = b / a if a > 0 else 1.0
            if b == math.inf:
                inf += 1
                if worst_ratio < math.inf:
                    worst_ratio, worst_pair = math.inf, (s, v)
            elif ratio > bound + 1e-9:
                fin += 1
            if b < math.inf and worst_ratio < math.inf and (worst_pair is None or ratio > worst_ratio):
                worst_ratio, worst_pair = ratio, (s, v)
    report = StretchReport(bound, qual, fin, inf, worst_ratio, worst_pair, fin == 0 and inf == 0)
    return report, lambda s, v: sub[s, v] / full[s, v] if full[s, v] > 0 else 1.0


def _fw_cover_report(g, cover, sources, radius):
    """check_cover's report from the Floyd-Warshall oracle: the round trips
    of g for the pairs, each ball's tree edges over all of g's vertices
    for its radius."""
    _, rt = oracle_round_trip_all_pairs(g)
    uncovered = []
    qual = 0
    for s in sorted(set(sources)):
        for v in range(g.n):
            if rt[s, v] <= radius:
                qual += 1
                if not any(s in b.members and v in b.members for b in cover.balls):
                    uncovered.append((s, v))
    radii = []
    for b in cover.balls:
        _, d = oracle_one_way_all_pairs(g, edge_indexes=b.rt_tree_edges)
        radii.append(float(max(d[b.center, v] + d[v, b.center] for v in (b.center, *b.members))))
    bound = 2.0 * (cover.params.c + 1) * cover.r
    top = max(radii, default=0.0)
    return CoverReport(radius, qual, len(uncovered), tuple(uncovered[:20]), tuple(radii), top,
                       bound, top <= bound + 1e-9, len(cover.failure_parts), not uncovered)


def _close(a, b):
    return a == b or abs(a - b) <= 1e-12 * abs(b)


def _assert_reports_match(got, want, grid, approx_fields, ratio_at=None):
    """got == want on the grid.  On continuous weights the approx_fields
    agree to 1e-12, and got's worst_pair is want's or, where two pairs'
    ratios are equal up to the last bits of their sums, one whose
    oracle ratio ratio_at gives is within 1e-12 of the worst."""
    if grid:
        assert got == want
        return
    for f in dataclasses.fields(got):
        x, y = getattr(got, f.name), getattr(want, f.name)
        if f.name == "worst_pair" and x != y:
            assert _close(ratio_at(*x), want.worst_ratio), (x, y)
        elif f.name in approx_fields:
            xs, ys = (x, y) if isinstance(x, tuple) else ((x,), (y,))
            assert len(xs) == len(ys), f.name
            for a, b in zip(xs, ys):
                assert _close(a, b), (f.name, a, b)
        else:
            assert x == y, f.name


class TestAgainstFloydWarshall:
    """check_stretch and check_cover read source rows; the oracle reads all
    pairs.  On grid weights every sum is exact, so the reports are equal
    field by field; on continuous weights a round trip may differ in its
    last bit, so the measured ratios and radii agree to 1e-12."""

    @pytest.mark.parametrize("grid", [True, False])
    def test_check_stretch(self, grid):
        kinds = set()
        for i in range(60):
            g, rng = _messy_graph(i, grid)
            sources = rng.sample(range(g.n), rng.randint(1, min(g.n, 8)))
            sources += sources[:1]  # a repeated source counts once
            pick = i % 5
            if pick == 0:
                sub = [*range(g.m), *range(0, g.m, 3)]  # every edge, some twice
            elif pick == 1:
                sub = []
            elif pick == 2:
                sub = [e for e in range(g.m) if e != i % max(g.m, 1)]  # all but one
            elif pick == 3:
                sub = rng.choices(range(g.m), k=rng.randint(0, g.m)) if g.m else []
            else:
                sub = swrt_spanner(g, 2, sources, rng=random.Random(i)).edges if g.n > 1 else [0]
            bound = rng.choice([1.0, 1.25, 2.0, 4.0])
            got = check_stretch(g, sub, sources, bound)
            want, ratio_at = _fw_stretch_report(g, sub, sources, bound)
            _assert_reports_match(got, want, grid, {"worst_ratio"}, ratio_at)
            kinds.add((got.passed, got.infinite_violations > 0, got.finite_violations > 0))
        assert kinds == {(True, False, False), (False, True, False), (False, False, True),
                         (False, True, True)}

    @pytest.mark.parametrize("grid", [True, False])
    def test_check_cover(self, grid):
        outcomes = set()
        for i in range(60):
            g, rng = _messy_graph(i, grid)
            sources = rng.sample(range(g.n), rng.randint(1, min(g.n, 8)))
            _, rt = oracle_round_trip_all_pairs(g)
            finite = sorted(set(rt[np.isfinite(rt)].tolist()))
            at = rng.randrange(len(finite))
            # a round trip itself on the grid; on continuous weights halfway
            # to the next larger one, since pairs around one cycle have the
            # same round trip up to the last bits of its sums
            above = [x for x in finite[at:] if x > finite[at] * (1 + 1e-9)]
            radius = finite[at] if grid else (finite[at] + (above[0] if above else 2 * finite[at] + 1)) / 2
            if i % 2 == 0:
                cov = swrt_cover(g, 2, radius if radius > 0 else 1.0, sources, rng=random.Random(i))
            else:
                cov = recursive_cover(g, max(radius, 1.0) / 8, sources, rng=random.Random(i))
            if i % 3 == 0 and cov.balls:
                # a tree that lost edges may no longer reach every member
                b = cov.balls[0]
                cut = dataclasses.replace(b, rt_tree_edges=frozenset(sorted(b.rt_tree_edges)[::2]))
                cov = dataclasses.replace(cov, balls=(cut, *cov.balls))
            got = check_cover(g, cov, sources, radius=radius)
            want = _fw_cover_report(g, cov, sources, radius)
            _assert_reports_match(got, want, grid, {"ball_radii", "max_ball_radius"})
            outcomes |= {("passed", got.passed), ("radius_ok", got.radius_ok),
                         ("tree_reaches", got.max_ball_radius < math.inf)}
        assert len(outcomes) == 6, outcomes


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

    @pytest.mark.parametrize("k", [1, 0, -2, 2.0, True])
    def test_k_must_be_integer_above_one(self, k):
        with pytest.raises(ValueError, match="k must"):
            stretch_bound(k, 100)

    @pytest.mark.parametrize("c", [0, -3, 2.5])
    def test_c_must_be_positive_integer(self, c):
        # c = 0 gave 223.0 at k = 2, n = 100, and c = -3 a negative bound
        with pytest.raises(ValueError, match="c must"):
            stretch_bound(2, 100, c)
