import math
import random

import numpy as np
import pytest

from conftest import random_graph
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

    def test_adjacency_mirrors_edges(self):
        g = random_graph("adj", 12, 40)
        fwd = {(u, v, w, i) for u in range(g.n) for v, w, i in g.adjacency(OUT)[u]}
        bwd = {(u, v, w, i) for v in range(g.n) for u, w, i in g.adjacency(IN)[v]}
        assert fwd == bwd == {(u, v, w, i) for i, (u, v, w) in enumerate(g.edges)}


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

    def test_tree_edges_stay_inside_restrict(self):
        g = random_graph("inside", 30, 140)
        keep = list(range(0, 30, 2))
        b = round_trip_ball(g, keep, 0, 8.0)
        for e in b.rt_tree_edges:
            u, v, _ = g.edges[e]
            assert u in set(keep) and v in set(keep)


class TestSubgraphAndMatrix:
    def test_distance_matrix_matches_sssp(self):
        g = random_graph("dm", 22, 80)
        keep = sorted(random.Random(1).sample(range(22), 15))
        for direction in (OUT, IN):
            mat = distance_matrix(g, restrict=keep, sources=keep[:4], direction=direction)
            for i, src in enumerate(keep[:4]):
                dv = sssp(g, keep, src, direction)
                for j, v in enumerate(keep):
                    if dv.dist[v] is UNREACHABLE:
                        assert np.isinf(mat[i, j])
                    else:
                        assert mat[i, j] == dv.dist[v]
