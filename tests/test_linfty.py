import heapq
import math
import random
from dataclasses import replace

import numpy as np
import pytest

import rtspan.linfty
from conftest import edge_subgraph, level_heavy_graph, random_graph, ring_with_chords
from rtspan.cli import generate_graph
from rtspan.graph import IN, OUT, UNREACHABLE, Graph
from rtspan.linfty import (
    ContractionBundle,
    build_scales,
    contract,
    linfty_merge_tree,
)
from rtspan.verify import oracle_linfty_matrix, oracle_one_way_all_pairs


def minimax(g, src, direction):
    """Cheapest max-edge-weight path from src (toward src for IN)."""
    best = [math.inf] * g.n
    best[src] = 0.0
    heap = [(0.0, src)]
    adj = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        if direction == OUT:
            adj[u].append((v, w))
        else:
            adj[v].append((u, w))
    while heap:
        b, u = heapq.heappop(heap)
        if b > best[u]:
            continue
        for v, w in adj[u]:
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


def roots_of(tree):
    return [x for x, p in enumerate(tree.parent) if p == -1]


def children_of(tree):
    """Each node's children, read off the parent links, in min_leaf order."""
    kids = [[] for _ in range(tree.size)]
    for x, p in enumerate(tree.parent):
        if p != -1:
            kids[p].append(x)
    return [tuple(sorted(k, key=tree.min_leaf.__getitem__)) for k in kids]


def loop_contract(g, sources, x_lo, x_hi, tree):
    """(vertex_map, edge_map, sources, edges) of one window by a loop over
    g.edges: per leader pair at x_lo, the least (weight, edge index) of the
    edges at or below x_hi inside one cycle at x_hi; leaders numbered in
    min_leaf order, kept edges in original index order."""
    leader, cycle = tree.partition_at(x_lo), tree.partition_at(x_hi)
    best = {}
    for e, (u, v, w) in enumerate(g.edges):
        if w <= x_hi and cycle[u] == cycle[v] and leader[u] != leader[v]:
            key = (leader[u], leader[v])
            best[key] = min(best.get(key, (w, e)), (w, e))
    present = sorted({x for key in best for x in key}, key=tree.min_leaf.__getitem__)
    cid = {x: i for i, x in enumerate(present)}
    kept = sorted((e, cid[a], cid[b], w) for (a, b), (w, e) in best.items())
    vmap = tuple(cid.get(leader[v]) for v in range(g.n))
    return (vmap, tuple(e for e, _, _, _ in kept), frozenset(vmap[s] for s in sources if vmap[s] is not None),
            tuple((a, b, w) for _, a, b, w in kept))


# one graph per weight family; level graphs have weights that add nothing
# beside 1e17 or 2^60, and levels 2 and 3 have different count triples
# that give equal windows
SCALE_FAMILIES = {
    "grid": random_graph("bs-eq-grid", 30, 110),
    "continuous": generate_graph(30, 110, random.Random("fixture:bs-eq-cont"),
                                 w_min=1.0, w_max=1000.0, quantum=0),
    "integer": generate_graph(30, 110, random.Random("fixture:bs-eq-int"),
                              w_min=1.0, w_max=8.0, quantum=1.0),
    "ring": ring_with_chords("bs-eq-ring", 30, 6),
    **{f"level:{seed}": level_heavy_graph(seed)[0] for seed in range(6)},
}


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
        assert roots_of(tree) == [0, 1, 2]
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
        assert len(roots_of(tree)) == 2

    def test_matches_minimax_oracle(self):
        for i in range(8):
            g = random_graph(f"li:{i}", 6 + 3 * i, 10 + 8 * i,
                             strongly_connected=i % 2 == 0)
            assert tree_matrix(g) == brute_linfty_matrix(g)
        # bidirected path, weights rising along it: each merge takes in one
        # more vertex, so leaf 0 sits n - 1 levels deep
        n = 40
        chain = Graph(n, [(a, b, float(i + 1)) for i in range(n - 1)
                          for a, b in ((i, i + 1), (i + 1, i))])
        tree, _ = linfty_merge_tree(chain)
        depth, x = 0, 0
        while tree.parent[x] != -1:
            depth, x = depth + 1, tree.parent[x]
        assert depth == n - 1
        assert tree_matrix(chain) == brute_linfty_matrix(chain)

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
        # ids follow the merge order: a parent comes after its children (the
        # order partition_at's one reverse pass relies on), and labels never
        # decrease with id
        assert list(tree.label) == sorted(tree.label) and all(
            p == -1 or p > x for x, p in enumerate(tree.parent))
        children = children_of(tree)
        for x in range(tree.n, tree.size):
            kids = children[x]
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

    def test_distance_is_least_mutual_threshold(self):
        """Against Floyd-Warshall on the edges of weight <= w, one sweep per
        distinct weight: the distance is the least w at which u and v reach
        each other, UNREACHABLE when none does."""
        g = random_graph("scc", 30, 60, strongly_connected=False)
        want = {}
        for w in sorted({w for _, _, w in g.edges}):
            _, dist = oracle_one_way_all_pairs(g, edge_indexes=[i for i, e in enumerate(g.edges) if e[2] <= w])
            mutual = np.isfinite(dist) & np.isfinite(dist.T)
            for u, v in zip(*np.nonzero(mutual)):
                want.setdefault((int(u), int(v)), w)
        tree, _ = linfty_merge_tree(g)
        for u in range(g.n):
            for v in range(g.n):
                got = tree.distance(u, v)
                if u == v:
                    assert got == 0.0
                elif (u, v) in want:
                    assert got == want[u, v]
                else:
                    assert got is UNREACHABLE
        assert len(roots_of(tree)) > 1 and tree.size > tree.n


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


def weak_loops_graph():
    """Not strongly connected, grid weights, with self-loops and parallel
    copies of edges at other weights."""
    g = random_graph("golden-merge-weak", 24, 50, strongly_connected=False)
    rng = random.Random("fixture:golden-merge-weak-extra")
    extra = [(v, v, rng.choice((1.0, 1.5, 2.0))) for v in rng.sample(range(g.n), 4)]
    extra += [(u, v, rng.choice((1.0, 1.5, 2.0))) for u, v, _ in rng.sample(g.edges, 8)]
    return Graph(g.n, list(g.edges) + extra)


# Whole trees recorded from the divide and conquer that ran one hand-written
# Tarjan pass per rank range: (graph, sorted h1, internal labels, parent,
# internal min_leaf).  Several components form at one weight in each.
GOLDEN_WHOLE_TREES = {
    "weak-loops-parallel": (
        weak_loops_graph,
        (0, 3, 6, 8, 12, 16, 17, 20, 21, 22, 25, 26, 30, 31, 32, 33, 34, 38, 42,
         49, 54, 55, 61),
        (1.4375, 1.4375, 1.6875, 1.75, 2.0),
        (27, 28, 26, 24, 26, -1, 27, 26, -1, 24, -1, 24, -1, -1, -1, 28, 28, 28,
         -1, -1, 25, 24, 25, 24, 26, -1, 27, 28, -1),
        (3, 20, 2, 0, 0),
    ),
    "ring-chords": (
        lambda: ring_with_chords("golden-merge-ring", 24, 8),
        (0, 1, 2, 3, 4, 5, 8, 10, 12, 14, 15, 16, 18, 19, 20, 21, 25, 26, 27, 28,
         29, 32, 33, 34, 35, 36, 37, 38, 40, 42, 43, 44, 45, 47, 48, 49, 51, 52,
         53, 54, 55),
        (8.0, 16.0, 32.0, 32.0, 32.0, 64.0, 64.0, 128.0, 128.0, 256.0),
        (33, 29, 25, 25, 31, 31, 31, 30, 30, 30, 30, 33, 30, 26, 26, 26, 27, 27,
         32, 28, 28, 28, 24, 24, 32, 29, 30, 33, 32, 33, 31, 33, 33, -1),
        (22, 2, 13, 16, 19, 1, 7, 4, 18, 0),
    ),
    "level-heavy:1": (
        lambda: level_heavy_graph(1)[0],
        (0, 2, 4, 8, 10, 11, 13, 16, 17, 19, 21, 23, 24, 25, 27, 28, 29, 30),
        (64.0, 128.0, 256.0, 2.0 ** 60),
        (12, 12, 12, 14, 11, 12, 11, 13, 11, 14, 14, 12, 13, 14, -1),
        (4, 0, 0, 0),
    ),
}


class TestGoldenMergeTree:
    def test_continuous_weights_whole_tree(self):
        g = generate_graph(60, 240, random.Random("fixture:golden-merge-cont"),
                           w_min=1.0, w_max=1000.0, quantum=0)
        tree, h1 = linfty_merge_tree(g)
        assert sorted(h1) == list(GOLDEN_CONT_H1)
        assert tuple(tree.label) == (0.0,) * 60 + GOLDEN_CONT_LABEL
        assert tuple(tree.parent) == GOLDEN_CONT_PARENT
        assert tuple(children_of(tree)) == ((),) * 60 + GOLDEN_CONT_CHILDREN
        assert tuple(tree.min_leaf) == GOLDEN_CONT_MIN_LEAF

    def test_grid_weights_tied_merges(self):
        g = random_graph("golden-merge-grid", 40, 100)
        tree, h1 = linfty_merge_tree(g)
        assert sorted(h1) == list(GOLDEN_GRID_H1)
        # each leaf joins every node on its path to the root
        leaves = {x: [] for x in range(tree.n, tree.size)}
        for v in range(tree.n):
            x = tree.parent[v]
            while x != -1:
                leaves[x].append(v)
                x = tree.parent[x]
        nodes = [(tree.label[x], tuple(sorted(leaves[x]))) for x in range(tree.n, tree.size)]
        assert len(nodes) == len(GOLDEN_GRID_NODES)
        assert set(nodes) == GOLDEN_GRID_NODES

    @pytest.mark.parametrize("name", list(GOLDEN_WHOLE_TREES))
    def test_whole_tree(self, name):
        make, h1_want, labels, parent, min_leaf = GOLDEN_WHOLE_TREES[name]
        g = make()
        tree, h1 = linfty_merge_tree(g)
        assert sorted(h1) == list(h1_want)
        assert tuple(tree.label) == (0.0,) * g.n + labels
        assert tuple(tree.parent) == parent
        assert tuple(tree.min_leaf) == tuple(range(g.n)) + min_leaf


def test_scc_work_is_m_log_distinct_weights(monkeypatch):
    """One strong-components call per level of the divide and conquer over
    the weight ranks, leaves included, and each edge in at most one arc
    handed to each call."""
    arcs_seen = []
    real = rtspan.linfty.connected_components

    def spy(mat, *args, **kwargs):
        assert kwargs.get("connection") == "strong"
        arcs_seen.append(mat.nnz)
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(rtspan.linfty, "connected_components", spy)
    g = generate_graph(400, 1600, random.Random("fixture:scc-work"),
                       w_min=1.0, w_max=1000.0, quantum=0)
    distinct = len({w for _, _, w in g.edges})
    tree, _ = linfty_merge_tree(g)
    assert tree.size > tree.n
    levels = math.ceil(math.log2(distinct + 1)) + 1
    assert 0 < len(arcs_seen) <= levels
    assert 0 < sum(arcs_seen) <= g.m * levels


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

    def test_cheap_arc_without_cheap_cycle_drops(self):
        # 1 -> 2 weighs 1, but the only way back weighs 8 > x_hi
        g = Graph(3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 8.0)])
        tree, _ = linfty_merge_tree(g)
        b = contract(g, [], 0.5, 4.0, tree)
        assert b.edge_map == (0, 1)
        assert b.vertex_map == (0, 1, None)

    def test_self_loop_never_survives(self):
        g = Graph(2, [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0)])
        tree, _ = linfty_merge_tree(g)
        b = contract(g, [], 0.5, 2.0, tree)
        assert all(u != v for u, v, _ in b.graph.edges)

    @pytest.mark.parametrize("family", list(SCALE_FAMILIES))
    def test_matches_loop_reference(self, family):
        # windows from every pair of thresholds among the weights, the
        # merge labels, and values between and beyond them
        g = SCALE_FAMILIES[family]
        tree, _ = linfty_merge_tree(g)
        marks = sorted({w for _, _, w in g.edges} | set(tree.label[g.n:]))
        xs = sorted({0.5 * marks[0], *marks[::3], 2.0 * marks[-1], *(0.5 * (a + b) for a, b in zip(marks, marks[1:]))})
        src = list(range(0, g.n, 2))
        for i, x_lo in enumerate(xs[::2]):
            for x_hi in xs[2 * i::2]:
                b = contract(g, src, x_lo, x_hi, tree)
                assert loop_contract(g, src, x_lo, x_hi, tree) == \
                    (b.vertex_map, b.edge_map, b.sources, b.graph.edges)
                assert b.graph.n == len({c for c in b.vertex_map if c is not None})

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

    def test_scales_and_edges_complete(self):
        """Against the oracle's bottleneck distances d: the scales are
        exactly the t at which some non-loop edge survives, and each bundle
        keeps exactly the surviving edges, less those that lose to a lighter
        parallel super-edge."""
        rng = random.Random("fixture:bs-complete-dag")
        dag = Graph(15, [(u, v, rng.uniform(1.0, 1000.0)) for u in range(15)
                         for v in range(u + 1, 15) if rng.random() < 0.3])
        graphs = [
            random_graph("bs-complete-grid", 24, 90),
            generate_graph(24, 90, random.Random("fixture:bs-complete-cont"),
                           w_min=1.0, w_max=1000.0, quantum=0),
            random_graph("bs-complete-weak", 24, 50, strongly_connected=False),
            dag,
        ]
        for g in graphs:
            n = g.n
            d = oracle_linfty_matrix(g)
            tree, _ = linfty_merge_tree(g)
            bundles = build_scales(g, range(n), tree)

            def survives(t, u, v, w):
                x = 2.0 ** t
                return u != v and max(w, d[u, v]) <= x and d[u, v] > x / n

            # weights lie in [1, 1000] and n < 32, so every scale is in [0, 15)
            want = {t for t in range(-10, 40)
                    if any(survives(t, u, v, w) for u, v, w in g.edges)}
            assert [b.t for b in bundles] == sorted(want)
            for b in bundles:
                # each vertex's super-vertex, named by its smallest member
                rep = [int(np.flatnonzero(d[u] <= 2.0 ** b.t / n)[0]) for u in range(n)]
                lightest = {}
                for e, (u, v, w) in enumerate(g.edges):
                    if survives(b.t, u, v, w):
                        key = (rep[u], rep[v])
                        lightest[key] = min(lightest.get(key, (w, e)), (w, e))
                assert sorted(b.edge_map) == sorted(e for _, e in lightest.values())

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

    @pytest.mark.parametrize("family", list(SCALE_FAMILIES))
    def test_bundles_equal_per_scale_contract(self, family, monkeypatch):
        g = SCALE_FAMILIES[family]
        src = list(range(0, g.n, 3))
        tree, _ = linfty_merge_tree(g)
        calls = []
        real = rtspan.linfty.contract
        monkeypatch.setattr(rtspan.linfty, "contract", lambda *a, **kw: calls.append(a[2:4]) or real(*a, **kw))
        bundles = build_scales(g, src, tree)
        monkeypatch.undo()
        assert bundles and 0 < len(calls) <= len(bundles)
        if family == "grid":  # every scale is one window
            assert len(calls) == 1 < len(bundles)
        for b in bundles:
            x = 2.0 ** b.t
            assert (b.x_lo, b.x_hi) == (x / g.n, x)
            alone = contract(g, src, b.x_lo, b.x_hi, tree)
            assert (alone.vertex_map, alone.edge_map, alone.sources) == (b.vertex_map, b.edge_map, b.sources)
            assert (alone.graph.n, alone.graph.edges) == (b.graph.n, b.graph.edges)
            assert loop_contract(g, src, b.x_lo, b.x_hi, tree) == \
                (b.vertex_map, b.edge_map, b.sources, b.graph.edges)
        # equal windows, and only they, share one Graph
        for a in bundles:
            for c in bundles:
                assert (a.graph is c.graph) == ((a.vertex_map, a.edge_map) == (c.vertex_map, c.edge_map))

    def test_trivial_graphs(self):
        tree, _ = linfty_merge_tree(Graph(1, []))
        assert build_scales(Graph(1, []), [], tree) == []
