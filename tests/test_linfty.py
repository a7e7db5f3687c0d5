import heapq
import math
import random
from dataclasses import replace

import numpy as np
import pytest

import rtspan.linfty
from conftest import edge_subgraph, random_graph
from rtspan.cli import generate_graph
from rtspan.graph import IN, OUT, UNREACHABLE, Graph
from rtspan.linfty import (
    ContractionBundle,
    _scc_of_arcs,
    build_scales,
    contract,
    linfty_merge_tree,
)
from rtspan.verify import oracle_one_way_all_pairs


def minimax(g, src, direction):
    """Cheapest max-edge-weight path from src (toward src for IN)."""
    best = [math.inf] * g.n
    best[src] = 0.0
    heap = [(0.0, src)]
    adj = g.adjacency(direction)
    while heap:
        b, u = heapq.heappop(heap)
        if b > best[u]:
            continue
        for v, w, _ in adj[u]:
            nb = max(b, w)
            if nb < best[v]:
                best[v] = nb
                heapq.heappush(heap, (nb, v))
    return best


def brute_linfty_matrix(g):
    """d_inf(u, v) = cheapest cycle through both, as max of two bottlenecks."""
    n = g.n
    out = [[0.0] * n for _ in range(n)]
    for u in range(n):
        fwd = minimax(g, u, OUT)
        back = minimax(g, u, IN)
        for v in range(n):
            if v == u:
                continue
            d = max(fwd[v], back[v])
            out[u][v] = UNREACHABLE if d == math.inf else d
    return out


def tree_matrix(g):
    tree, _ = linfty_merge_tree(g)
    return [[tree.distance(u, v) for v in range(g.n)] for u in range(g.n)]


def arcs_of(g):
    return [(u, v, i) for i, (u, v, _) in enumerate(g.edges)]


class TestSccOfArcs:
    """The library's only Tarjan; singleton components are left out."""

    def test_bridged_two_cycles(self):
        g = Graph(4, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0),
                      (2, 3, 1.0), (3, 2, 1.0)])
        assert sorted(map(sorted, _scc_of_arcs(arcs_of(g)))) == [[0, 1], [2, 3]]

    def test_partition_and_mutual_reachability(self):
        g = random_graph("scc", 30, 60, strongly_connected=False)
        comps = _scc_of_arcs(arcs_of(g))
        label = {v: i for i, c in enumerate(comps) for v in c}
        assert len(label) == sum(len(c) for c in comps)
        _, dist = oracle_one_way_all_pairs(g)
        for u in range(g.n):
            for v in range(g.n):
                if u == v:
                    continue
                mutual = np.isfinite(dist[u][v]) and np.isfinite(dist[v][u])
                assert mutual == (u in label and label[u] == label.get(v))


class TestMergeTree:
    def test_two_cycle(self):
        g = Graph(2, [(0, 1, 3.0), (1, 0, 5.0)])
        tree, h1 = linfty_merge_tree(g)
        assert tree.distance(0, 1) == 5.0
        assert tree.distance(1, 0) == 5.0
        assert tree.distance(0, 0) == 0.0
        assert h1 == {0, 1}

    def test_dag_never_merges(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        tree, h1 = linfty_merge_tree(g)
        assert h1 == frozenset()
        assert sorted(tree.roots()) == [0, 1, 2]
        assert tree.distance(0, 2) is UNREACHABLE

    def test_cheaper_indirect_cycle_wins(self):
        # the long way around (max weight 3) beats the heavy return arc
        g = Graph(3, [(0, 1, 1.0), (1, 0, 10.0), (1, 2, 2.0), (2, 0, 3.0)])
        tree, _ = linfty_merge_tree(g)
        assert tree.distance(0, 1) == 3.0
        assert tree.distance(1, 2) == 3.0
        assert tree.distance(0, 2) == 3.0

    def test_disjoint_cycles_unreachable(self):
        g = Graph(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)])
        tree, _ = linfty_merge_tree(g)
        assert tree.distance(0, 1) == 1.0
        assert tree.distance(2, 3) == 1.0
        assert tree.distance(0, 2) is UNREACHABLE
        assert len(tree.roots()) == 2

    def test_matches_minimax_oracle(self):
        for i in range(8):
            g = random_graph(f"li:{i}", 6 + 3 * i, 10 + 8 * i,
                             strongly_connected=i % 2 == 0)
            assert tree_matrix(g) == brute_linfty_matrix(g)

    def test_vertex_range_check(self):
        tree, _ = linfty_merge_tree(Graph(2, []))
        with pytest.raises(ValueError):
            tree.distance(0, 2)

    def test_labels_monotone_up_the_tree(self):
        g = random_graph("mono", 25, 90, strongly_connected=True)
        tree, _ = linfty_merge_tree(g)
        for x in range(tree.size):
            p = tree.parent[x]
            if p != -1:
                assert tree.label[x] <= tree.label[p]
        for x in range(tree.n, tree.size):
            kids = tree.children[x]
            assert len(kids) >= 2
            assert tree.min_leaf[x] == min(tree.min_leaf[c] for c in kids)

    def test_partition_at_agrees_with_distances(self):
        g = random_graph("pat", 18, 60)
        tree, _ = linfty_merge_tree(g)
        labels = sorted({tree.label[x] for x in range(tree.n, tree.size)})
        for x in [0.0] + labels + [lb * 1.5 for lb in labels]:
            leader = tree.partition_at(x)
            for u in range(g.n):
                for v in range(g.n):
                    d = tree.distance(u, v)
                    together = d is not UNREACHABLE and d <= x
                    assert (leader[u] == leader[v]) == together

    def test_certificate_size_and_preservation(self):
        for i in range(6):
            g = random_graph(f"cert:{i}", 20, 75, strongly_connected=i % 2 == 0)
            tree, h1 = linfty_merge_tree(g)
            assert len(h1) <= 2 * (g.n - 1)
            sub = edge_subgraph(g, h1)
            assert tree_matrix(sub) == tree_matrix(g)


# Recorded from the per-weight sweep the merge tree used to run: the
# divide and conquer must reproduce it.  With continuous weights at most
# one component forms per weight, so the whole tree is pinned.
GOLDEN_CONT_H1 = (
    6, 9, 11, 12, 15, 20, 21, 29, 34, 39, 48, 57, 60, 61, 64, 70, 73, 74, 76,
    79, 80, 81, 83, 84, 85, 87, 90, 91, 94, 95, 96, 97, 99, 100, 101, 108, 111,
    112, 115, 116, 118, 121, 126, 128, 129, 130, 131, 135, 136, 139, 141, 145,
    151, 153, 155, 157, 158, 159, 160, 161, 166, 170, 172, 180, 187, 188, 192,
    196, 198, 200, 202, 206, 209, 210, 211, 212, 214, 215, 217, 218, 221, 222,
    224, 228, 230, 231, 232, 236, 237, 238,
)
GOLDEN_CONT_LABEL = (
    228.9224831737626, 328.39611879132406, 330.89682431763134,
    380.63326592453643, 383.1013780854217, 404.25135523410887,
    417.20602991149866, 418.75629364226944, 424.10909495123576,
    496.3336861244179, 502.64186898805065, 510.6876567556045,
    560.4632670894567, 565.0714892096665, 567.8295149664157, 677.3198235572687,
    726.7534159145221, 729.5441448674896, 745.5281762557416, 849.7599164979246,
    968.6998127072324,
)
GOLDEN_CONT_PARENT = (
    63, 78, 63, 69, 78, 75, 61, 65, 67, 68, 75, 69, 68, 79, 60, 62, 65, 74, 60,
    69, 60, 69, 64, 65, 67, 60, 71, 60, 67, 71, 70, 80, 74, 63, 70, 70, 73, 69,
    76, 72, 70, 78, 70, 74, 78, 70, 67, 63, -1, 67, 69, -1, 61, 64, 63, 65, 61,
    74, 77, 65, 62, 66, 63, 67, 74, 66, 74, 68, 70, 70, 71, 72, 73, 74, 75, 76,
    77, 78, 79, 80, -1,
)
GOLDEN_CONT_CHILDREN = (
    (14, 18, 20, 25, 27), (6, 52, 56), (60, 15), (0, 2, 62, 33, 47, 54),
    (22, 53), (7, 16, 23, 55, 59), (61, 65), (63, 8, 24, 28, 46, 49),
    (67, 9, 12), (3, 11, 19, 21, 37, 50), (68, 69, 30, 34, 35, 40, 42, 45),
    (70, 26, 29), (71, 39), (72, 36), (73, 66, 17, 64, 32, 43, 57),
    (74, 5, 10), (75, 38), (76, 58), (77, 1, 4, 41, 44), (78, 13), (79, 31),
)
GOLDEN_CONT_MIN_LEAF = tuple(range(60)) + (
    14, 6, 14, 0, 22, 7, 6, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
)
# Grid weights: two components form at 1.625, whose node ids may come in
# either order, so each internal node is pinned as (label, its leaves).
GOLDEN_GRID_H1 = (
    0, 1, 2, 3, 5, 6, 7, 8, 9, 12, 15, 16, 17, 19, 20, 21, 22, 23, 24, 25, 27,
    28, 29, 30, 31, 33, 34, 35, 36, 37, 39, 40, 42, 44, 46, 50, 51, 52, 54, 55,
    56, 58, 59, 60, 61, 65, 66, 68, 69, 70, 75, 80, 82, 84, 86, 87, 88, 89, 90,
    93, 94, 95,
)
GOLDEN_GRID_NODES = {
    (1.125, (1, 5, 37)),
    (1.3125, (20, 24)),
    (1.4375, (0, 1, 2, 5, 10, 12, 13, 15, 16, 17, 18, 21, 23, 26, 28, 29,
              32, 37)),
    (1.5, (0, 1, 2, 5, 10, 12, 13, 14, 15, 16, 17, 18, 21, 23, 26, 28, 29,
           32, 37)),
    (1.625, (0, 1, 2, 5, 10, 12, 13, 14, 15, 16, 17, 18, 21, 22, 23, 26,
             28, 29, 32, 37)),
    (1.625, (11, 33, 34)),
    (1.75, (0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18,
            21, 22, 23, 25, 26, 28, 29, 30, 32, 33, 34, 36, 37)),
    (1.8125, (0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
              18, 21, 22, 23, 25, 26, 28, 29, 30, 32, 33, 34, 35, 36, 37,
              38)),
    (1.875, tuple(v for v in range(40) if v != 39)),
    (2.0, tuple(range(40))),
}


class TestGoldenMergeTree:
    def test_continuous_weights_whole_tree(self):
        g = generate_graph(60, 240, random.Random("fixture:golden-merge-cont"),
                           w_min=1.0, w_max=1000.0, quantum=0)
        tree, h1 = linfty_merge_tree(g)
        assert sorted(h1) == list(GOLDEN_CONT_H1)
        assert tuple(tree.label) == (0.0,) * 60 + GOLDEN_CONT_LABEL
        assert tuple(tree.parent) == GOLDEN_CONT_PARENT
        assert tuple(tree.children) == ((),) * 60 + GOLDEN_CONT_CHILDREN
        assert tuple(tree.min_leaf) == GOLDEN_CONT_MIN_LEAF

    def test_grid_weights_tied_merges(self):
        g = random_graph("golden-merge-grid", 40, 100)
        tree, h1 = linfty_merge_tree(g)
        assert sorted(h1) == list(GOLDEN_GRID_H1)
        nodes = [(tree.label[x], tuple(sorted(tree.leaves_under(x))))
                 for x in range(tree.n, tree.size)]
        assert len(nodes) == len(GOLDEN_GRID_NODES)
        assert set(nodes) == GOLDEN_GRID_NODES


def test_scc_work_is_m_log_distinct_weights(monkeypatch):
    """Each edge takes part in at most one SCC call per level of the
    divide and conquer over the weight ranks, plus one at its leaf."""
    arcs_seen = []
    real = rtspan.linfty._scc_of_arcs

    def spy(arcs):
        arcs_seen.append(len(arcs))
        return real(arcs)

    monkeypatch.setattr(rtspan.linfty, "_scc_of_arcs", spy)
    g = generate_graph(400, 1600, random.Random("fixture:scc-work"),
                       w_min=1.0, w_max=1000.0, quantum=0)
    distinct = len({w for _, _, w in g.edges})
    tree, _ = linfty_merge_tree(g)
    assert tree.size > tree.n
    bound = g.m * (math.ceil(math.log2(distinct + 1)) + 1)
    assert 0 < sum(arcs_seen) <= bound


class TestContract:
    def cycle_pair(self):
        # light 2-cycle {0,1} bridged to 2 by a heavy 2-cycle
        return Graph(3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 4.0), (2, 1, 4.0)])

    def test_window_keeps_everything(self):
        g = Graph(2, [(0, 1, 4.0), (1, 0, 4.0)])
        tree, _ = linfty_merge_tree(g)
        b = contract(g, [0], 2.0, 4.0, tree)
        assert b.graph.n == 2 and b.graph.m == 2
        assert b.vertex_map == (0, 1)
        assert b.edge_map == (0, 1)
        assert b.sources == {0}

    def test_window_collapses_everything(self):
        g = Graph(2, [(0, 1, 4.0), (1, 0, 4.0)])
        tree, _ = linfty_merge_tree(g)
        b = contract(g, [0], 4.0, 4.0, tree)
        assert b.graph.n == 0 and b.graph.m == 0
        assert b.vertex_map == (None, None)
        assert b.sources == frozenset()

    def test_sources_follow_merged_vertices(self):
        g = self.cycle_pair()
        tree, _ = linfty_merge_tree(g)
        b = contract(g, [0, 2], 1.0, 4.0, tree)
        assert b.graph.n == 2 and b.graph.m == 2
        assert b.vertex_map == (0, 0, 1)
        assert b.edge_map == (2, 3)
        assert b.sources == {0, 1}

    def test_parallel_super_edges_keep_lightest(self):
        g = Graph(3, [(0, 1, 1.0), (1, 0, 1.0), (0, 2, 3.0), (1, 2, 2.0),
                      (2, 0, 2.0)])
        tree, _ = linfty_merge_tree(g)
        b = contract(g, [], 1.0, 4.0, tree)
        # 0,1 melt; of the two arcs toward 2 only the weight-2 one stays
        assert b.vertex_map == (0, 0, 1)
        assert b.graph.edges == ((0, 1, 2.0), (1, 0, 2.0))
        assert b.edge_map == (3, 4)

    def test_self_loop_never_survives(self):
        g = Graph(2, [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0)])
        tree, _ = linfty_merge_tree(g)
        b = contract(g, [], 0.5, 2.0, tree)
        assert all(u != v for u, v, _ in b.graph.edges)

    def test_window_validation(self):
        g = self.cycle_pair()
        tree, _ = linfty_merge_tree(g)
        with pytest.raises(ValueError, match="window"):
            contract(g, [], 4.0, 2.0, tree)
        with pytest.raises(ValueError, match="vertex"):
            contract(g, [9], 1.0, 2.0, tree)


class TestBuildScales:
    def test_two_cycle_single_scale(self):
        g = Graph(2, [(0, 1, 4.0), (1, 0, 4.0)])
        tree, _ = linfty_merge_tree(g)
        bundles = build_scales(g, [0], tree)
        assert [b.t for b in bundles] == [2]
        assert bundles[0].x_hi == 4.0 and bundles[0].x_lo == 2.0
        assert bundles[0].graph.m == 2

    def test_dag_has_no_scales(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        tree, _ = linfty_merge_tree(g)
        assert build_scales(g, [0], tree) == []

    def test_bundle_edges_satisfy_window_predicate(self):
        for i in range(5):
            g = random_graph(f"bs:{i}", 20, 70, strongly_connected=i % 2 == 0)
            tree, _ = linfty_merge_tree(g)
            for b in build_scales(g, range(g.n), tree):
                x = 2.0 ** b.t
                assert b.x_hi == x and b.x_lo == x / g.n
                assert b.graph.m > 0
                for j, (cu, cv, w) in enumerate(b.graph.edges):
                    ou, ov, ow = g.edges[b.edge_map[j]]
                    assert w == ow
                    assert b.vertex_map[ou] == cu and b.vertex_map[ov] == cv
                    d = tree.distance(ou, ov)
                    assert max(ow, d) <= x and d > x / g.n

    def test_per_edge_scale_count_bound(self):
        g = random_graph("bsc", 30, 120, strongly_connected=True)
        tree, _ = linfty_merge_tree(g)
        bundles = build_scales(g, range(g.n), tree)
        per_edge = {}
        for b in bundles:
            for eidx in b.edge_map:
                per_edge[eidx] = per_edge.get(eidx, 0) + 1
        assert max(per_edge.values()) < math.log2(g.n) + 1
        assert sum(b.graph.m for b in bundles) <= g.m * math.ceil(math.log2(g.n))

    def test_contraction_fixed_point(self):
        g = random_graph("bsf", 22, 80, strongly_connected=True)
        tree, _ = linfty_merge_tree(g)
        for b in build_scales(g, [0, 3], tree):
            tree2, _ = linfty_merge_tree(b.graph)
            again = contract(b.graph, b.sources, b.x_lo, b.x_hi, tree2)
            assert again.graph.n == b.graph.n
            assert again.graph.edges == b.graph.edges
            assert again.vertex_map == tuple(range(b.graph.n))
            assert again.sources == b.sources

    def test_equal_windows_share_one_graph(self):
        # grid weights: scales 1-5 are one window, and scale 6 melts groups
        g = random_graph("bs-share", 40, 160, strongly_connected=True)
        tree, _ = linfty_merge_tree(g)
        src = [0, 5, 11, 17]
        bundles = build_scales(g, src, tree)
        pairs = [(a, b) for i, a in enumerate(bundles) for b in bundles[i + 1:]]
        same = [(a.vertex_map, a.edge_map) == (b.vertex_map, b.edge_map) for a, b in pairs]
        assert any(same) and not all(same)
        for (a, b), equal in zip(pairs, same):
            assert (a.graph is b.graph) == equal
        # sharing and the distances build_scales hands on change no window
        for b in bundles:
            alone = contract(g, src, b.x_lo, b.x_hi, tree)
            assert (alone.graph.n, alone.graph.edges) == (b.graph.n, b.graph.edges)
            assert replace(alone, t=b.t, graph=b.graph) == b

    def test_trivial_graphs(self):
        tree, _ = linfty_merge_tree(Graph(1, []))
        assert build_scales(Graph(1, []), [], tree) == []
