import math
import random
from bisect import bisect_right

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as sp_dijkstra

from conftest import heap_sssp, level_heavy_graph, random_graph, ring_with_chords
from rtspan.graph import (
    IN,
    OUT,
    UNREACHABLE,
    EdgeListError,
    Graph,
    distance_matrix,
    parse_edge_list,
    round_trip_ball,
    sssp,
    write_edge_list,
)
from rtspan.verify import oracle_one_way_all_pairs


def heap_ball(g, restrict, center, radius):
    """(members, tree edges) of a round-trip ball built on heap_sssp: the
    v with the smallest (round trip, v) up to radius, and the union of the
    two heap trees' parent chains from them back to center."""
    verts = range(g.n) if restrict is None else sorted(set(restrict))
    fwd, fpar = heap_sssp(g, restrict, center, OUT)
    bwd, bpar = heap_sssp(g, restrict, center, IN)
    ranked = sorted((fwd[v] + bwd[v], v) for v in verts
                    if fwd[v] is not UNREACHABLE and bwd[v] is not UNREACHABLE)
    members = [v for _, v in ranked[:bisect_right([d for d, _ in ranked], radius)]]
    tree = set()
    for parent, back in ((fpar, 0), (bpar, 1)):
        for v in members:
            while v != center:
                tree.add(parent[v])
                v = g.edges[parent[v]][back]
    return frozenset(members), frozenset(tree)


def tie_heavy_graph(seed):
    """Small random digraph whose weights come from one small pool (the
    1/16 grid, small integers, or 0.1/0.2/0.3/0.7, whose sums round), with
    parallel edges and self-loops, so that shortest paths tie often."""
    rng = random.Random(f"ties:{seed}")
    pool = ([1.0 + i / 16 for i in range(0, 17, 4)], [1.0, 2.0, 3.0], [0.1, 0.2, 0.3, 0.7])[seed % 3]
    n = rng.randrange(4, 26)
    edges = [(rng.randrange(n), rng.randrange(n), rng.choice(pool)) for _ in range(rng.randrange(n, 4 * n))]
    edges += [(u, v, rng.choice(pool)) for u, v, _ in rng.sample(edges, len(edges) // 5)]  # parallel
    edges += [(v, v, rng.choice(pool)) for v in rng.sample(range(n), 2)]  # self-loops
    rng.shuffle(edges)
    return Graph(n, edges), rng


# 3 -> 1 adds nothing to d = 1e17 in float64, so 1 and 2 tie with 3 and
# reach each other at no cost: the heap keeps 3 -> 1 and 1 -> 2, and a tree
# ordered by (d, tail) alone would make 1 and 2 each other's parents
LEVEL_EDGES = [(0, 3, 1e17), (3, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)]
LEVEL_GRAPHS = [Graph(4, LEVEL_EDGES), Graph(4, [*LEVEL_EDGES[:2], (1, 1, 1.0), *LEVEL_EDGES[2:]])]


class TestParse:
    def test_basic(self):
        g = parse_edge_list("3 2\n0 1 1.5\n1 2 2.0\n")
        assert (g.n, g.m) == (3, 2)
        assert g.edges == ((0, 1, 1.5), (1, 2, 2.0))

    def test_accepts_bytes(self):
        g = parse_edge_list(b"2 1\n0 1 0.25\n")
        assert g.edges == ((0, 1, 0.25),)

    def test_no_edges(self):
        g = parse_edge_list("1 0\n")
        assert (g.n, g.m) == (1, 0)

    def test_nonpositive_weight(self):
        with pytest.raises(EdgeListError, match="weight"):
            parse_edge_list("2 1\n0 1 -1\n")
        with pytest.raises(EdgeListError, match="weight"):
            parse_edge_list("2 1\n0 1 0\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(EdgeListError, match="range"):
            parse_edge_list("2 1\n0 5 1.0\n")

    def test_count_mismatch(self):
        with pytest.raises(EdgeListError, match="count"):
            parse_edge_list("3 2\n0 1 1.0\n")

    def test_malformed_lines(self):
        with pytest.raises(EdgeListError):
            parse_edge_list("")
        with pytest.raises(EdgeListError):
            parse_edge_list("3\n")
        with pytest.raises(EdgeListError):
            parse_edge_list("2 1\n0 1\n")
        with pytest.raises(EdgeListError):
            parse_edge_list("2 1\nzero one 1.0\n")

    def test_write_parse_round_trip(self):
        g = random_graph("io", 17, 60)
        again = parse_edge_list(write_edge_list(g))
        assert again.n == g.n and again.edges == g.edges

    def test_writer_preserves_awkward_floats(self):
        g = Graph(2, [(0, 1, 0.1), (1, 0, 1e-7)])
        again = parse_edge_list(write_edge_list(g))
        assert again.edges == g.edges


class TestGraphValidation:
    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 1, 0.0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 1, math.inf)])

    def test_rejects_bad_ids(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2, 1.0)])
        with pytest.raises(ValueError):
            Graph(2, [(-1, 0, 1.0)])

    @pytest.mark.parametrize("seed", range(6))
    def test_array_graph_equals_validated_graph(self, seed):
        # a relabelled slice of a graph with parallel edges and self-loops,
        # as contract builds its windows
        g, rng = tie_heavy_graph(seed)
        src, dst, w = g._edge_arrays()
        keep = np.array(sorted(rng.sample(range(g.m), rng.randrange(g.m + 1))), dtype=np.int64)
        relabel = np.array(rng.sample(range(g.n), g.n), dtype=np.int64)
        a = Graph._from_arrays(g.n, relabel[src[keep]], relabel[dst[keep]], w[keep])
        b = Graph(g.n, [(relabel[g.edges[e][0]], relabel[g.edges[e][1]], g.edges[e][2]) for e in keep])
        assert (a.n, a.m, a.edges) == (b.n, b.m, b.edges)
        assert all(type(u) is int and type(v) is int and type(x) is float for u, v, x in a.edges)
        for x, y in zip(a._edge_arrays(), b._edge_arrays()):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        ca, cb = a.weight_csr(), b.weight_csr()
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(ca, part), getattr(cb, part))


class TestSssp:
    def test_forced_path_out(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        assert sssp(g, None, 0, OUT).dist[2] == 3.0

    def test_forced_path_in(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        assert sssp(g, None, 2, IN).dist[0] == 3.0

    def test_unreachable(self):
        g = Graph(2, [])
        assert sssp(g, None, 0, OUT).dist[1] is UNREACHABLE

    def test_source_outside_restrict(self):
        g = Graph(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            sssp(g, [1, 2], 0)

    def test_restrict_blocks_paths(self):
        # detour through 1 is the only route; dropping 1 cuts it
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert sssp(g, None, 0).dist[2] == 2.0
        assert sssp(g, [0, 2], 0).dist[2] is UNREACHABLE

    def test_parent_chain_witnesses_distance(self):
        g = random_graph("chain", 25, 90)
        for direction in (OUT, IN):
            dv = sssp(g, None, 3, direction)
            for v in range(g.n):
                if dv.dist[v] is UNREACHABLE or v == 3:
                    continue
                total = 0.0
                x = v
                while x != 3:
                    e = dv.parent_edge[x]
                    src, dst, w = g.edges[e]
                    total += w
                    x = src if direction == OUT else dst
                assert total == dv.dist[v]

    @pytest.mark.parametrize("make", [tie_heavy_graph, level_heavy_graph], ids=["ties", "level"])
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_heap_reference_on_ties(self, make, seed):
        # distances and parent edges both, on the whole graph and inside
        # restrict subsets, in both directions
        g, rng = make(seed)
        for _ in range(4):
            source = rng.randrange(g.n)
            keep = None if rng.random() < 0.3 else [source, *rng.sample(range(g.n), g.n // 2)]
            for direction in (OUT, IN):
                dv = sssp(g, keep, source, direction)
                assert (dv.dist, dv.parent_edge) == heap_sssp(g, keep, source, direction)

    @pytest.mark.parametrize("g", LEVEL_GRAPHS)
    def test_level_edges_keep_heap_parents(self, g):
        for source in range(g.n):
            for direction in (OUT, IN):
                dv = sssp(g, None, source, direction)
                assert (dv.dist, dv.parent_edge) == heap_sssp(g, None, source, direction)
        assert sssp(g, None, 0, OUT).parent_edge[1:] == (g.edges.index((3, 1, 1.0)), g.edges.index((1, 2, 1.0)), 0)

    def test_matches_oracle_exactly(self):
        for i in range(10):
            g = random_graph(f"fw:{i}", 5 + 4 * i, 3 * (5 + 4 * i), strongly_connected=i % 2 == 0)
            ids, dist = oracle_one_way_all_pairs(g)
            for u in range(g.n):
                dv = sssp(g, None, u, OUT)
                for v in range(g.n):
                    expect = dist[u][v]
                    got = dv.dist[v]
                    if math.isinf(expect):
                        assert got is UNREACHABLE
                    else:
                        assert got == expect


class TestBalls:
    def cycle3(self):
        return Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])

    def test_cycle_full_radius(self):
        b = round_trip_ball(self.cycle3(), None, 0, 3.0)
        assert b.members == frozenset({0, 1, 2})

    def test_zero_radius(self):
        b = round_trip_ball(self.cycle3(), None, 1, 0.0)
        assert b.members == frozenset({1})
        assert b.rt_tree_edges == frozenset()

    def test_just_under_circumference(self):
        b = round_trip_ball(self.cycle3(), None, 0, 2.9)
        assert b.members == frozenset({0})

    def test_center_outside_restrict(self):
        with pytest.raises(ValueError):
            round_trip_ball(self.cycle3(), [1, 2], 0, 1.0)

    @pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf])
    def test_bad_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius must"):
            round_trip_ball(self.cycle3(), None, 0, radius)

    def test_members_monotone_in_radius(self):
        g = random_graph("mono", 20, 70)
        prev = frozenset()
        for radius in (1.0, 2.0, 4.0, 8.0, 16.0):
            cur = round_trip_ball(g, None, 5, radius).members
            assert prev <= cur
            prev = cur

    def test_tree_certifies_radius(self):
        g = random_graph("cert", 24, 100)
        for center in (0, 7, 13):
            b = round_trip_ball(g, None, center, 6.0)
            tree = sorted(b.rt_tree_edges)
            ids, dist = oracle_one_way_all_pairs(g, edge_indexes=tree)
            ci = ids.index(b.center)
            for v in b.members:
                vi = ids.index(v)
                assert dist[ci][vi] + dist[vi][ci] <= b.radius

    @pytest.mark.parametrize("make", [tie_heavy_graph, level_heavy_graph], ids=["ties", "level"])
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_heap_reference_on_ties(self, make, seed):
        g, rng = make(seed)
        top = max(w for _, _, w in g.edges)
        for _ in range(4):
            center = rng.randrange(g.n)
            keep = None if rng.random() < 0.3 else [center, *rng.sample(range(g.n), g.n // 2)]
            radius = rng.choice([0.0, 0.25, 0.5, 1.25, 2.0, 4.0, 15.0]) * top
            b = round_trip_ball(g, keep, center, radius)
            assert (b.members, b.rt_tree_edges) == heap_ball(g, keep, center, radius)

    @pytest.mark.parametrize("g", LEVEL_GRAPHS)
    def test_level_edges_keep_ball_tree(self, g):
        for radius in (0.0, 2e17, 3e17):
            b = round_trip_ball(g, None, 0, radius)
            assert (b.members, b.rt_tree_edges) == heap_ball(g, None, 0, radius)

    def test_tree_edges_stay_inside_restrict(self):
        g = random_graph("inside", 30, 140)
        keep = list(range(0, 30, 2))
        b = round_trip_ball(g, keep, 0, 8.0)
        for e in b.rt_tree_edges:
            u, v, _ = g.edges[e]
            assert u in set(keep) and v in set(keep)


class TestSubgraphAndMatrix:
    def test_distance_matrix_matches_oracle(self):
        g = random_graph("dm", 22, 80)
        keep = sorted(random.Random(1).sample(range(22), 15))
        ids, dist = oracle_one_way_all_pairs(g, restrict=keep)
        assert ids == keep
        for direction in (OUT, IN):
            mat = distance_matrix(g, restrict=keep, sources=keep[:4], direction=direction)
            want = dist[:4] if direction == OUT else dist[:, :4].T
            assert np.array_equal(mat, want)

    @staticmethod
    def sliced_reference(g, verts, sources, direction):
        """Rows by slicing the whole-graph weight matrix, lightest edge per
        pair, with csr[idx][:, idx] and transposing it for IN."""
        lightest = {}
        for u, v, w in g.edges:
            lightest[u, v] = min(w, lightest.get((u, v), math.inf))
        rows, cols = zip(*lightest) if lightest else ((), ())
        csr = csr_matrix((list(lightest.values()), (rows, cols)), shape=(g.n, g.n))
        idx = np.asarray(verts, dtype=np.int64)
        sub = csr[idx][:, idx]
        if direction == IN:
            sub = sub.T
        pos = {v: i for i, v in enumerate(verts)}
        return np.atleast_2d(sp_dijkstra(sub, directed=True, indices=[pos[s] for s in sources]))

    @pytest.mark.parametrize("family", ["grid", "ties", "level", "ring"])
    def test_distance_matrix_equals_sliced_matrix(self, family):
        # ties: parallel edges and self-loops; level: weights such as 1
        # beside 1e17; half the grid graphs leave pairs unreachable
        infinite = 0
        for seed in range(12):
            g, rng = {
                "grid": lambda: (random_graph(f"dm:{seed}", 30, 70, strongly_connected=seed % 2 == 0),
                                 random.Random(seed)),
                "ties": lambda: tie_heavy_graph(seed),
                "level": lambda: level_heavy_graph(seed),
                "ring": lambda: (ring_with_chords(f"dm:{seed}", 40, 6), random.Random(seed)),
            }[family]()
            restricts = [list(range(g.n)), [rng.randrange(g.n)]]
            restricts += [sorted(rng.sample(range(g.n), rng.randint(2, g.n))) for _ in range(4)]
            for verts in restricts:
                sources = rng.sample(verts, rng.randint(1, len(verts)))
                for direction in (OUT, IN):
                    got = distance_matrix(g, verts, sources, direction)
                    want = self.sliced_reference(g, verts, sources, direction)
                    assert got.shape == want.shape and np.array_equal(got, want)
                    infinite += bool(np.isinf(got).any())
        assert infinite > 0
