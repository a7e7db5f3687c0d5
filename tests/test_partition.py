import math
import random

import numpy as np
import pytest

import rtspan.estimate as est_mod
from conftest import heap_sssp, random_graph, ring_with_chords
from rtspan.estimate import _RowStore, estimate_ball_fractions
from rtspan.graph import IN, OUT, UNREACHABLE, Graph, distance_matrix, sssp, vertex_ids
from rtspan.partition import Cluster, Partition, cluster


def brute_force_partition(g, restrict, centers, radii, direction):
    """Direct argmax of r_u - d over centers; smallest id wins ties.  The
    distances come from heap searches, not the scipy rows cluster reads."""
    verts = range(g.n) if restrict is None else sorted(restrict)
    dists = {u: heap_sssp(g, restrict, u, direction)[0] for u in centers}
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

    def test_direction_validated(self):
        g = Graph(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="direction"):
            cluster(g, None, [0], 1.0, 2, direction="sideways", rng=random.Random(0))


def partition_view(p):
    return [(c.center, c.radius, c.members, c.reach) for c in p.clusters], p.residual


class TestRowStore:
    """cluster reads its center rows from a row store over the working set;
    handed one, it searches only the center rows the store lacks."""

    @staticmethod
    def spy_searches(monkeypatch):
        calls = []
        real = est_mod.distance_matrix

        def spy(g_, restrict, sources=None, direction=OUT):
            calls.append((direction, sorted(sources)))
            return real(g_, restrict, sources=sources, direction=direction)

        monkeypatch.setattr(est_mod, "distance_matrix", spy)
        return calls

    def test_store_equals_fresh_search(self):
        # grid weights and grid radii make exact score ties; half of the
        # graphs are not strongly connected, so rows hold unreachable vertices
        unreachable = 0
        for i in range(12):
            rng = random.Random(f"store:{i}")
            g = random_graph(f"store:{i}", 24, 40, strongly_connected=i % 2 == 0)
            keep = None if i % 3 == 0 else sorted(rng.sample(range(24), rng.randint(8, 23)))
            verts = vertex_ids(g, keep)
            store = _RowStore(g, verts)
            estimate_ball_fractions(g, keep, 2.0, 0.125, rng, _rows=store)  # holds every row
            centers = sorted(rng.sample(verts, rng.randint(1, 9)))
            radii = {u: rng.randint(0, 64) / 16.0 for u in centers}
            for direction in (OUT, IN):
                fresh = cluster(g, keep, centers, 2.0, 4, direction, FixedRadii(radii))
                shared = cluster(g, keep, centers, 2.0, 4, direction, FixedRadii(radii), _rows=store)
                assert partition_view(shared) == partition_view(fresh)
                want, want_res = brute_force_partition(g, keep, centers, radii, direction)
                assert {c.center: set(c.members) for c in shared.clusters} == want
                assert set(shared.residual) == want_res
            unreachable += bool(np.isinf(store.rows[OUT]).any())
        assert unreachable >= 3

    def test_sampled_store_fetches_missing_center_rows(self, monkeypatch):
        # eps 0.9 draws t = 23 < 40 samples, so the store holds only the
        # distinct sample rows; cluster searches the rest of its centers,
        # one batched call per direction, and nothing when asked again
        g = random_graph("store-sampled", 40, 170)
        store = _RowStore(g, vertex_ids(g, None))
        est = estimate_ball_fractions(g, None, 2.0, 0.9, random.Random(4), _rows=store)
        assert est.t == 23
        held = set(est.sample.tolist())
        centers = list(range(0, 40, 3))
        calls = self.spy_searches(monkeypatch)
        for direction in (OUT, IN):
            want = cluster(g, None, centers, 2.0, 4, direction, random.Random(5))
            calls.clear()
            got = cluster(g, None, centers, 2.0, 4, direction, random.Random(5), _rows=store)
            assert calls == [(direction, sorted(set(centers) - held))]
            assert partition_view(got) == partition_view(want)
            calls.clear()
            cluster(g, None, centers, 2.0, 4, direction, random.Random(6), _rows=store)
            assert calls == []

    def test_full_store_searches_nothing(self, monkeypatch):
        g = random_graph("store-full", 30, 100, strongly_connected=False)
        store = _RowStore(g, vertex_ids(g, None))
        estimate_ball_fractions(g, None, 2.0, 0.125, random.Random(0), _rows=store)
        calls = self.spy_searches(monkeypatch)
        for direction in (OUT, IN):
            cluster(g, None, range(30), 2.0, 4, direction, random.Random(1), _rows=store)
        assert calls == []

    def test_without_store_one_search_per_call(self, monkeypatch):
        g = random_graph("store-none", 30, 100)
        calls = self.spy_searches(monkeypatch)
        cluster(g, None, [4, 2, 9, 2], 2.0, 4, IN, random.Random(1))
        assert calls == [(IN, [2, 4, 9])]

    def test_store_of_another_working_set_rejected(self):
        g = random_graph("store-foreign", 20, 60)
        store = _RowStore(g, vertex_ids(g, range(10)))
        with pytest.raises(ValueError, match="another working set"):
            cluster(g, None, [0], 2.0, 4, rng=random.Random(0), _rows=store)


def eager_partition(g, restrict, centers, radii, direction):
    """The partition cluster gives for these radii, built directly as
    Cluster objects: scores from the centers' distance_matrix rows, the
    smallest center winning equal scores, reach the largest member entry
    of the winner's row, so every reach is bit-equal to cluster's."""
    verts = vertex_ids(g, restrict)
    U = sorted(set(centers))
    rows = distance_matrix(g, verts, U, direction) if U else np.zeros((0, len(verts)))
    owner = {}
    for q, v in enumerate(verts):
        best = max(range(len(U)), key=lambda i: (radii[U[i]] - rows[i, q], -i), default=None)
        if best is not None and radii[U[best]] - rows[best, q] > 0.0:
            owner.setdefault(best, []).append(q)
    clusters = tuple(Cluster(U[i], radii[U[i]], frozenset(verts[q] for q in qs),
                             max(float(rows[i, q]) for q in qs)) for i, qs in sorted(owner.items()))
    claimed = {v for c in clusters for v in c.members}
    return Partition(clusters, frozenset(v for v in verts if v not in claimed))


def assert_same_partition(got, want, g):
    """Field by field, with parts() and same_part read off want's Cluster
    objects rather than its labels."""
    assert len(got.clusters) == len(want.clusters)
    for a, b in zip(got.clusters, want.clusters):
        assert (a.center, a.radius, a.members) == (b.center, b.radius, b.members)
        assert a.reach == b.reach and math.copysign(1.0, a.reach) == math.copysign(1.0, b.reach)
    assert got.residual == want.residual
    parts = [c.members for c in want.clusters] + ([want.residual] if want.residual else [])
    assert got.parts() == parts
    part_of = {v: i for i, p in enumerate(parts) for v in p}
    for u in range(g.n):  # vertices outside restrict included
        for v in range(g.n):
            assert got.same_part(u, v) is (u in part_of and part_of[u] == part_of.get(v))
    assert got == want


class TestLabelPartition:
    """cluster returns a partition held as labels; its clusters, residual,
    parts and same_part equal those of the eager Cluster objects."""

    CASES = [
        ("grid", lambda i: random_graph(f"lab:{i}", 24, 80, strongly_connected=i % 2 == 0)),
        ("ring", lambda i: ring_with_chords(f"lab:{i}", 30, 4)),
    ]

    @pytest.mark.parametrize("family, make", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("direction", [OUT, IN])
    def test_equals_eager_reference(self, family, make, direction):
        residual = 0
        for i in range(10):
            g = make(i)
            rng = random.Random(f"lab:{family}:{i}")
            keep = None if i % 3 == 0 else sorted(rng.sample(range(g.n), rng.randint(2, g.n - 1)))
            pool = vertex_ids(g, keep)
            centers = rng.sample(pool, rng.randint(1, min(12, len(pool))))
            scale = 64.0 if family == "ring" else 2.0
            radii = {u: rng.randint(0, 64) / 64.0 * scale for u in centers}
            got = cluster(g, keep, centers, scale, 4, direction, FixedRadii(radii))
            assert_same_partition(got, eager_partition(g, keep, centers, radii, direction), g)
            residual += bool(got.residual)
            # the real draws, on the same labels path
            drawn = random.Random(i)
            want = {u: drawn.expovariate(math.log(4) / scale) for u in sorted(set(centers))}
            got = cluster(g, keep, centers, scale, 4, direction, random.Random(i))
            assert_same_partition(got, eager_partition(g, keep, centers, want, direction), g)
        assert residual >= 3

    @pytest.mark.parametrize("direction", [OUT, IN])
    def test_equal_scores_smallest_center_wins(self, direction):
        # on a bidirected path of unit weights 0 - 1 - 2 - 3 - 4, centers 0
        # and 4 with radius 3 both offer score 1 to vertex 2
        g = Graph(5, [(u, u + 1, 1.0) for u in range(4)] + [(u + 1, u, 1.0) for u in range(4)])
        radii = {0: 3.0, 4: 3.0}
        got = cluster(g, None, [4, 0], 5.0, 2, direction, FixedRadii(radii))
        assert_same_partition(got, eager_partition(g, None, [0, 4], radii, direction), g)
        assert [set(c.members) for c in got.clusters] == [{0, 1, 2}, {3, 4}]

    def test_no_center_claims_anything(self):
        # a zero radius scores 0 at its own center, which claims nothing
        g = random_graph("lab-none", 12, 40)
        radii = {2: 0.0, 7: 0.0}
        for direction in (OUT, IN):
            got = cluster(g, range(1, 11), [7, 2], 2.0, 4, direction, FixedRadii(radii))
            assert_same_partition(got, eager_partition(g, range(1, 11), [2, 7], radii, direction), g)
            assert got.clusters == () and got.residual == frozenset(range(1, 11))
            assert got.parts() == [frozenset(range(1, 11))]

    def test_eager_partition_labels(self):
        # Partition(clusters, residual) holds the same labels a cluster call
        # would: one per vertex, ascending ids, the residual labelled last
        p = Partition((Cluster(3, 1.0, frozenset({5, 3}), 0.5), Cluster(4, 1.0, frozenset({4}), 0.0)),
                      frozenset({0, 6}))
        assert p._ids.tolist() == [0, 3, 4, 5, 6]
        assert p._labels.tolist() == [2, 0, 1, 0, 2]
        assert p.parts() == [frozenset({3, 5}), frozenset({4}), frozenset({0, 6})]
        assert p.same_part(3, 5) and p.same_part(0, 6) and not p.same_part(3, 4)
        assert not p.same_part(1, 1) and not p.same_part(0, 1)
