"""Bottleneck round-trip structure.

The bottleneck round-trip distance of two vertices is the smallest weight
threshold at which they become mutually reachable using only edges at or
below it.  Merging strongly connected super-nodes as the threshold rises
yields a dendrogram (MergeTree) whose lowest-common-ancestor labels are
that distance, plus a small certificate edge set that preserves it.  The
merges are found by an offline incremental-SCC divide and conquer over
the ranks of the distinct weights, run one level at a time: each level is
one call to scipy's strong components, O(m log m) work rather than one
SCC pass per distinct weight.  A super-node is named by its least vertex,
its min_leaf; internal nodes that form at one weight are numbered in
min_leaf order.  Contraction cuts a graph down to one weight window so
each distance scale works on a small graph; the windows and their edges
are read off the tree's labels and its per-threshold leaders
(partition_at), never from per-pair distances.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import groupby
from operator import itemgetter

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .graph import UNREACHABLE, Graph


class MergeTree:
    """Dendrogram of SCC merges over ascending weight thresholds.

    Nodes 0..n-1 are graph vertices; higher ids are internal nodes whose
    label is the threshold at which their children became one strongly
    connected super-node.  Every node's id is above its children's, and
    labels never decrease from leaf to root.
    Leaves in different trees of the forest share no cycle at all.
    Only parent links are kept: distance climbs them in O(depth) per
    query, and partition_at reads every leader at one threshold in one
    O(size) pass.
    """

    def __init__(self, n, label, parent, min_leaf):
        self.n = n
        self.label = label
        self.parent = parent
        self.min_leaf = min_leaf
        self.size = len(label)

    def distance(self, u, v):
        """Bottleneck round-trip distance; 0 for u == v by convention.

        The label of the lowest common ancestor (a leaf's label is 0),
        found by a climb that steps the lower id to its parent until the
        two meet (a parent's id exceeds its children's): O(depth) per
        query."""
        if not (0 <= u < self.n) or not (0 <= v < self.n):
            raise ValueError("vertex id out of range")
        parent = self.parent
        while u != v:
            if u > v:
                u, v = v, u
            u = parent[u]
            if u == -1:  # u was a root, and v is not above it
                return UNREACHABLE
        return self.label[u]

    def partition_at(self, x):
        """Per-vertex leader: the highest node over it with label <= x.
        Vertices sharing a leader are mutually reachable within weight x.

        One pass from the top id down: a node's parent has a higher id, so
        its leader is known first.  The node shares it when the parent's
        label is <= x, and otherwise leads itself, since labels only grow
        toward the root."""
        label, parent = self.label, self.parent
        lead = list(range(self.size))
        for node in range(self.size - 1, -1, -1):
            p = parent[node]
            if p != -1 and label[p] <= x:
                lead[node] = lead[p]
        return lead[:self.n]


def _span_arcs(root, nodes, adj):
    """Edge indexes of a BFS arborescence from root covering nodes."""
    seen = {root}
    queue = [root]
    picked = []
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        for nxt, eidx in adj[x]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
                picked.append(eidx)
    assert seen == set(nodes), "merged component must be internally connected"
    return picked


def linfty_merge_tree(g: Graph):
    """Build the merge tree plus its certificate edge set.

    An arc's merge rank is the rank, among the distinct weights, of the
    smallest threshold w at or above its own weight at which its
    endpoints are strongly connected.  A divide and conquer over the
    ranks finds every merge rank.  A rank range [lo, hi] holds the arcs
    still undecided, each endpoint named by the least vertex of its
    super-node below lo; the strong components of those at rank <= mid
    send each arc to [lo, mid] (joined by mid) or, renamed to its
    components at mid, to [mid+1, hi], unless it now lies inside one.
    All ranges of one level of the recursion are disjoint in rank, so
    their (lo, name) nodes make one graph and one strong-components call
    settles the level: at most ceil(log2(W+1)) + 1 calls for W distinct
    weights, each arc in at most one per level, O(m log m) work in all.

    A range [lo, lo] is a leaf, settled in the same call with mid = lo:
    its arcs lie inside the strong components that form at threshold w =
    weights[lo].  Each one merges under an internal node labeled w, and
    the certificate set gains an out-tree plus an in-tree over the merged
    children (arcs at or below w, taken in (weight, edge index) order),
    at most 2*(children-1) original edges per merge.  Internal nodes are
    numbered by rank, then by min_leaf, the least vertex under them.
    Returns (MergeTree, frozenset of certificate edge indexes); the
    certificate subgraph reproduces every bottleneck round-trip distance
    exactly.
    """
    n = g.n
    src, dst, w = g._edge_arrays()
    weights, rank = np.unique(w, return_inverse=True)
    never = len(weights)  # merge rank of arcs that never close a cycle
    # undecided arcs in (weight, edge index) order, self-loops left out
    e = np.argsort(rank, kind="stable")
    e = e[src[e] != dst[e]]
    a, b, r = src[e], dst[e], rank[e]
    lo, hi = np.zeros(len(e), dtype=np.int64), np.full(len(e), never)
    leaf_arcs = []  # (lo, root, a, b, e) of the arcs at each level's leaves
    while len(e):
        mid = (lo + hi) // 2
        keys, idx = np.unique(np.concatenate((lo * n + a, lo * n + b)), return_inverse=True)
        ia, ib = idx[:len(e)], idx[len(e):]
        low = r <= mid
        mat = coo_matrix((np.ones(np.count_nonzero(low)), (ia[low], ib[low])),
                         shape=(len(keys), len(keys)))
        _, comp = connected_components(mat, directed=True, connection="strong")
        # a component lies in one range, where keys ascend with the vertex
        _, first = np.unique(comp, return_index=True)
        least = (keys % n)[first][comp]
        ca, cb = least[ia], least[ib]
        leaf = lo == hi
        leaf_arcs += zip(*(x[leaf].tolist() for x in (lo, ca, a, b, e)))
        right = ~(low & (ca == cb))
        a, b = np.where(right, ca, a), np.where(right, cb, b)
        lo, hi = np.where(right, mid + 1, lo), np.where(right, hi, mid)
        keep = ~leaf & (a != b) & (lo < never)
        e, a, b, r, lo, hi = e[keep], a[keep], b[keep], r[keep], lo[keep], hi[keep]

    label = [0.0] * n
    parent = [-1] * n
    min_leaf = list(range(n))
    top = list(range(n))  # node of the super-node each least vertex names
    h1 = set()
    weights = weights.tolist()
    merge = itemgetter(0, 1)
    leaf_arcs.sort(key=merge)  # stable: (weight, edge index) order within a merge
    for (at, root), arcs in groupby(leaf_arcs, key=merge):
        oadj = {}
        iadj = {}
        for _, _, x, y, eidx in arcs:
            oadj.setdefault(x, []).append((y, eidx))
            iadj.setdefault(y, []).append((x, eidx))
        kids = sorted(oadj.keys() | iadj.keys())
        h1.update(_span_arcs(root, kids, oadj))
        h1.update(_span_arcs(root, kids, iadj))
        node = len(label)
        label.append(weights[at])
        parent.append(-1)
        min_leaf.append(root)
        for x in kids:
            parent[top[x]] = node
        top[root] = node
    tree = MergeTree(n, label, parent, min_leaf)
    return tree, frozenset(h1)


@dataclass(frozen=True)
class ContractionBundle:
    """One weight window of the original graph.

    vertex_map sends original ids to contracted ids (None once removed),
    so the original vertices melted into contracted vertex c are those
    mapped to c; edge_map sends contracted edge indexes back to original
    ones.
    """

    t: int | None
    graph: Graph
    vertex_map: tuple
    edge_map: tuple
    sources: frozenset
    x_lo: float
    x_hi: float


def contract(g: Graph, sources, x_lo: float, x_hi: float, tree: MergeTree, *,
             _graphs: dict | None = None) -> ContractionBundle:
    """Cut g down to the weight window [x_lo, x_hi].

    In order: groups mutually reachable within weight x_lo melt into one
    super-vertex; edges heavier than x_hi drop; edges whose endpoints
    have different leaders at x_hi drop (no cycle this cheap uses them);
    vertices left without any edge drop.  Parallel super-edges keep only
    the lightest per ordered pair.  Sources follow their vertices and
    silently vanish when removed.  Super-vertices are numbered in min_leaf
    order of their leaders, and the kept edges in ascending original
    index, each the least (weight, edge index) of its pair.  The whole cut
    is array work over g's edge arrays and the two leader arrays.

    _graphs is internal, for build_scales: it maps (vertex_map, edge_map)
    to the Graph already built for an equal window, which is then
    returned again instead of a copy.
    """
    if x_lo > x_hi:
        raise ValueError("window must satisfy x_lo <= x_hi")
    for s in sources:
        if not (0 <= s < g.n):
            raise ValueError(f"source {s} is not a vertex")
    src, dst, w = g._edge_arrays()
    leader = np.asarray(tree.partition_at(x_lo), dtype=np.int64)
    cycle = np.asarray(tree.partition_at(x_hi), dtype=np.int64)  # equal iff distance <= x_hi
    lu, lv = leader[src], leader[dst]
    e = np.flatnonzero((w <= x_hi) & (cycle[src] == cycle[dst]) & (lu != lv))
    # per (lu, lv) pair, its least (w, edge index) first
    order = np.lexsort((e, w[e], lv[e], lu[e]))
    e, pu, pv = e[order], lu[e][order], lv[e][order]
    first = np.ones(len(e), dtype=bool)
    first[1:] = (pu[1:] != pu[:-1]) | (pv[1:] != pv[:-1])
    e = np.sort(e[first])

    present = np.unique(np.concatenate((lu[e], lv[e])))
    present = present[np.argsort(np.asarray(tree.min_leaf)[present])]
    cid = np.full(tree.size, -1, dtype=np.int64)
    cid[present] = np.arange(len(present))

    edge_map = tuple(e.tolist())
    vmap = tuple(None if c < 0 else c for c in cid[leader].tolist())

    graphs = {} if _graphs is None else _graphs
    graph = graphs.get((vmap, edge_map))
    if graph is None:
        graph = graphs[vmap, edge_map] = Graph._from_arrays(
            len(present), cid[lu[e]], cid[lv[e]], w[e])

    return ContractionBundle(
        None,
        graph,
        vmap,
        edge_map,
        frozenset(vmap[s] for s in set(sources) if vmap[s] is not None),
        float(x_lo),
        float(x_hi),
    )


def build_scales(g: Graph, sources, tree: MergeTree):
    """Contraction bundles for every integer scale t whose window
    [2^t/n, 2^t] keeps at least one edge.

    An edge (u, v) with bottleneck distance d survives scale t exactly
    when max(w, d) <= 2^t and d > 2^t/n.  Every surviving edge's d is the
    label L of an internal node, and every internal node's merge arcs
    have w <= L and that node as their lowest common ancestor; so the
    scales are the t with L <= 2^t and L > 2^t/n over the distinct
    internal labels L.  Candidate t values come from logarithms, then get
    filtered with that float predicate, the one contract applies, so
    enumeration and contraction cannot disagree.

    A window is fixed by three counts: the merge labels <= 2^t/n (its
    leaders), the merge labels <= 2^t (its cycles) and the edge weights
    <= 2^t.  contract runs once per distinct count triple; the other
    scales with that triple reuse its bundle with their own t and bounds.
    Windows with equal vertex and edge maps share one Graph object, so a
    cover of one window can hand its searches on to the next.
    """
    n = g.n
    if n < 2 or g.m == 0:
        return []
    merge_labels = sorted(tree.label[n:])
    cand = set()
    for lab in set(merge_labels):
        lo = math.floor(math.log2(lab)) - 2
        hi = math.ceil(math.log2(lab * n)) + 2
        cand.update(t for t in range(lo, hi + 1) if 2.0 ** t / n < lab <= 2.0 ** t)
    weights = sorted(w for _, _, w in g.edges)
    bundles = []
    windows = {}
    graphs = {}
    for t in sorted(cand):
        x = 2.0 ** t
        key = (bisect_right(merge_labels, x / n), bisect_right(merge_labels, x),
               bisect_right(weights, x))
        b = windows.get(key)
        if b is None:
            b = windows[key] = contract(g, sources, x / n, x, tree, _graphs=graphs)
            assert b.graph.m > 0, "enumerated scale contracted to nothing"
        bundles.append(replace(b, t=t, x_lo=x / n, x_hi=x))
    return bundles
