import math
import random

import pytest

from conftest import random_graph
from rtspan.graph import IN, OUT, UNREACHABLE, Graph, sssp
from rtspan.partition import cluster


def brute_force_partition(g, restrict, centers, radii, direction):
    """Direct argmax of r_u - d over centers; smallest id wins ties."""
    verts = range(g.n) if restrict is None else sorted(restrict)
    dists = {u: sssp(g, restrict, u, direction).dist for u in centers}
    assign = {}
    residual = set()
    for v in verts:
        best_u = None
        best_score = 0.0
        for u in sorted(centers):
            d = dists[u][v]
            if d is UNREACHABLE:
                continue
            score = radii[u] - d
            if score > 0.0 and score > best_score:
                best_score = score
                best_u = u
        if best_u is None:
            residual.add(v)
        else:
            assign.setdefault(best_u, set()).add(v)
    return assign, residual


class FixedRadii:
    """rng stub whose expovariate hands out preset {center: radius} values
    in ascending center order, the order cluster draws its radii in."""

    def __init__(self, radii):
        self.values = iter([radii[u] for u in sorted(radii)])

    def expovariate(self, rate):
        return next(self.values)


class TestCluster:
    def test_no_centers_all_residual(self):
        g = random_graph("nc", 10, 30)
        p = cluster(g, None, [], 2.0, 4, rng=random.Random(0))
        assert p.clusters == () and p.residual == frozenset(range(10))

    def test_isolated_vertices_self_cluster(self):
        g = Graph(2, [])
        p = cluster(g, None, [0, 1], 1.0, 2, rng=random.Random(0))
        assert {c.center: set(c.members) for c in p.clusters} == {0: {0}, 1: {1}}
        assert p.residual == frozenset()

    def test_injected_radius_claims_neighbor(self):
        g = Graph(2, [(0, 1, 1.0)])
        p = cluster(g, None, [0], 5.0, 2, rng=FixedRadii({0: 2.0}))
        assert len(p.clusters) == 1
        c = p.clusters[0]
        assert c.center == 0 and set(c.members) == {0, 1}
        assert p.residual == frozenset()

    def test_validation(self):
        g = Graph(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="s must"):
            cluster(g, None, [0], 1.0, 1, rng=random.Random(0))
        with pytest.raises(ValueError, match="restrict"):
            cluster(g, [0, 1], [2], 1.0, 2, rng=random.Random(0))
        with pytest.raises(ValueError, match="r must"):
            cluster(g, None, [0], 0.0, 2, rng=random.Random(0))
        with pytest.raises(ValueError, match="rng"):
            cluster(g, None, [0], 1.0, 2)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_r_rejected(self, r):
        g = Graph(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="r must"):
            cluster(g, None, [0], r, 2, rng=random.Random(0))

    def test_radii_are_expovariate_draws_in_center_order(self):
        # Exp(ln(s)/r) clocks come straight from random.expovariate, one per
        # center in sorted order, whatever order the centers are given in
        g = random_graph("draws", 20, 60)
        centers = [17, 3, 11, 0, 8]
        r, s = 2.5, 5
        p = cluster(g, None, centers, r, s, rng=random.Random(99))
        want = random.Random(99)
        expected = {u: want.expovariate(math.log(s) / r) for u in sorted(centers)}
        assert p.clusters
        for c in p.clusters:
            assert c.radius == expected[c.center]

    def test_partitions_restrict(self):
        for i in range(20):
            g = random_graph(f"pp:{i}", 30, 100, strongly_connected=i % 2 == 0)
            rng = random.Random(i)
            keep = sorted(rng.sample(range(30), 24))
            centers = sorted(rng.sample(keep, rng.randint(1, 10)))
            p = cluster(g, keep, centers, 3.0, 4, rng=rng)
            seen = sorted(p.residual)
            for c in p.clusters:
                seen.extend(c.members)
            assert sorted(seen) == keep
            assert len(p.residual) <= len(keep) - len(centers)

    def test_matches_brute_force_argmax(self):
        # dyadic weights and fixed radii keep every score comparison and
        # every reach exact
        for i in range(30):
            rng = random.Random(f"bf:{i}")
            g = random_graph(f"bf:{i}", 18, 50, strongly_connected=i % 3 == 0)
            keep = None if i % 2 else sorted(rng.sample(range(18), rng.randint(6, 17)))
            pool = range(18) if keep is None else keep
            centers = sorted(rng.sample(pool, rng.randint(1, 7)))
            radii = {u: rng.randint(0, 64) / 16.0 for u in centers}
            for direction in (OUT, IN):
                p = cluster(g, keep, centers, 2.0, 4, direction=direction, rng=FixedRadii(radii))
                got = {c.center: set(c.members) for c in p.clusters}
                want, want_res = brute_force_partition(g, keep, centers, radii, direction)
                assert got == want
                assert set(p.residual) == want_res
                for c in p.clusters:
                    d = sssp(g, keep, c.center, direction).dist
                    assert c.reach == max(d[v] for v in c.members)

    def test_equal_scores_go_to_smallest_center(self):
        # both centers offer score 1 to the middle vertex
        g = Graph(3, [(0, 1, 1.0), (2, 1, 1.0)])
        p = cluster(g, None, [0, 2], 5.0, 2, rng=FixedRadii({0: 2.0, 2: 2.0}))
        owner = {v: c.center for c in p.clusters for v in c.members}
        assert owner[1] == 0

    def test_member_distance_within_sampled_radius(self):
        for i in range(10):
            rng = random.Random(f"rad:{i}")
            g = random_graph(f"rad:{i}", 40, 160)
            centers = sorted(rng.sample(range(40), 8))
            p = cluster(g, None, centers, 2.0, 4, rng=rng)
            for c in p.clusters:
                dv = sssp(g, None, c.center, OUT)
                for v in c.members:
                    d = dv.dist[v]
                    assert d is not UNREACHABLE
                    assert d <= c.radius * (1 + 1e-9)
                assert c.reach <= c.radius * (1 + 1e-9)

    def test_in_direction_mirrors_reversed_graph(self):
        g = random_graph("mir", 20, 70)
        rev = Graph(g.n, [(v, u, w) for u, v, w in g.edges])
        centers = [1, 5, 9]
        radii = {1: 2.5, 5: 1.25, 9: 3.0}
        a = cluster(g, None, centers, 2.0, 4, direction=IN, rng=FixedRadii(radii))
        b = cluster(rev, None, centers, 2.0, 4, direction=OUT, rng=FixedRadii(radii))
        assert [(c.center, set(c.members)) for c in a.clusters] == \
               [(c.center, set(c.members)) for c in b.clusters]
        assert a.residual == b.residual

    def test_same_part_views(self):
        g = Graph(4, [(0, 1, 1.0)])
        p = cluster(g, None, [0], 5.0, 2, rng=FixedRadii({0: 2.0}))
        assert p.same_part(0, 1)
        assert p.same_part(2, 3)      # both residual
        assert not p.same_part(0, 2)
        assert len(p.parts()) == 2

    def test_clusters_ordered_by_center(self):
        g = random_graph("ord", 25, 90)
        p = cluster(g, None, [3, 17, 8, 11], 4.0, 4, rng=random.Random(5))
        order = [c.center for c in p.clusters]
        assert order == sorted(order)
