"""Bottleneck round-trip structure.

The bottleneck round-trip distance of two vertices is the smallest weight
threshold at which they become mutually reachable using only edges at or
below it.  Merging strongly connected super-nodes as the threshold rises
yields a dendrogram (MergeTree) whose LCA labels realize that distance in
O(1) per query, plus a small certificate edge set that preserves it.  The
merges are found by an offline incremental-SCC divide and conquer over
the ranks of the distinct weights, O(m log m) SCC work rather than one
SCC pass per distinct weight; internal nodes that form at one weight are
numbered in min_leaf order.  Contraction cuts a graph down to one weight
window so each distance scale works on a small graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .graph import UNREACHABLE, Graph


class MergeTree:
    """Dendrogram of SCC merges over ascending weight thresholds.

    Nodes 0..n-1 are graph vertices; higher ids are internal nodes whose
    label is the threshold at which their children became one strongly
    connected super-node.  Labels never decrease from leaf to root.
    Leaves in different trees of the forest share no cycle at all.
    """

    def __init__(self, n, label, parent, children, min_leaf):
        self.n = n
        self.label = label
        self.parent = parent
        self.children = children
        self.min_leaf = min_leaf
        self.size = len(label)
        self._lca = None

    def roots(self):
        return [x for x in range(self.size) if self.parent[x] == -1]

    def _build_lca(self):
        first = [-1] * self.size
        comp = [-1] * self.size
        euler = []
        depth = []
        for root in self.roots():
            stack = [(root, 0, 0)]
            while stack:
                node, d, ci = stack.pop()
                if ci == 0:
                    first[node] = len(euler)
                    comp[node] = root
                euler.append(node)
                depth.append(d)
                kids = self.children[node]
                if ci < len(kids):
                    stack.append((node, d, ci + 1))
                    stack.append((kids[ci], d + 1, 0))
        # sparse table of euler indexes, min by tour depth
        m = len(euler)
        table = [list(range(m))]
        j = 1
        while (1 << j) <= m:
            prev = table[-1]
            half = 1 << (j - 1)
            cur = []
            for i in range(m - (1 << j) + 1):
                a, b = prev[i], prev[i + half]
                cur.append(a if depth[a] <= depth[b] else b)
            table.append(cur)
            j += 1
        self._lca = (first, comp, euler, depth, table)

    def lca(self, u, v):
        """Lowest common ancestor node id, or None across the forest."""
        if self._lca is None:
            self._build_lca()
        first, comp, euler, depth, table = self._lca
        if comp[u] != comp[v]:
            return None
        a, b = first[u], first[v]
        if a > b:
            a, b = b, a
        j = (b - a + 1).bit_length() - 1
        x = table[j][a]
        y = table[j][b - (1 << j) + 1]
        return euler[x] if depth[x] <= depth[y] else euler[y]

    def distance(self, u, v):
        """Bottleneck round-trip distance; 0 for u == v by convention."""
        if not (0 <= u < self.n) or not (0 <= v < self.n):
            raise ValueError("vertex id out of range")
        if u == v:
            return 0.0
        node = self.lca(u, v)
        if node is None:
            return UNREACHABLE
        return self.label[node]

    def partition_at(self, x):
        """Per-vertex leader: the highest node over it with label <= x.
        Vertices sharing a leader are mutually reachable within weight x."""
        leader = list(range(self.n))
        for root in self.roots():
            stack = [root]
            while stack:
                node = stack.pop()
                if self.label[node] <= x:
                    for leaf in self.leaves_under(node):
                        leader[leaf] = node
                else:
                    stack.extend(self.children[node])
        return leader

    def leaves_under(self, node):
        out = []
        stack = [node]
        while stack:
            x = stack.pop()
            if x < self.n:
                out.append(x)
            else:
                stack.extend(self.children[x])
        return out


def _scc_of_arcs(arcs):
    """Tarjan over the multigraph the arcs define; only components with two
    or more nodes are returned."""
    adj = {}
    nodes = set()
    for a, b, _ in arcs:
        nodes.add(a)
        nodes.add(b)
        adj.setdefault(a, []).append(b)
    index = {}
    low = {}
    on = set()
    stk = []
    comps = []
    counter = 0
    for root in sorted(nodes):
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stk.append(root)
        on.add(root)
        work = [(root, iter(adj.get(root, ())))]
        while work:
            v, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stk.append(nxt)
                    on.add(nxt)
                    work.append((nxt, iter(adj.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in on and index[nxt] < low[v]:
                    low[v] = index[nxt]
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = set()
                while True:
                    x = stk.pop()
                    on.discard(x)
                    comp.add(x)
                    if x == v:
                        break
                if len(comp) >= 2:
                    comps.append(comp)
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
    return comps


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
    endpoints are strongly connected.  An offline incremental-SCC divide
    and conquer finds every merge rank.  A rank range [lo, hi] holds the
    arcs still undecided, endpoints mapped to the super-nodes formed
    below lo; the SCCs of those at rank <= mid send each arc to
    [lo, mid] (joined by mid) or [mid+1, hi].  Ranges are settled lowest
    first from an explicit stack, so each arc takes part in at most one
    SCC pass per level and one at its leaf: O(m log m) SCC work in all.

    At a leaf rank with threshold w, the arcs there that still join
    distinct super-nodes lie inside the strong components that form at
    w, and their weakly connected components are exactly those.  Each
    one merges under an internal node labeled w, and the certificate set
    gains an out-tree plus an in-tree over the merged children (arcs at
    or below w, taken in (weight, edge index) order), at most
    2*(children-1) original edges per merge.  Internal nodes formed at
    one weight are numbered in min_leaf order.  Returns (MergeTree,
    frozenset of certificate edge indexes); the certificate subgraph
    reproduces every bottleneck round-trip distance exactly.
    """
    n = g.n
    label = [0.0] * n
    parent = [-1] * n
    children = [()] * n
    min_leaf = list(range(n))
    uf = list(range(n))

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    weights = sorted({w for _, _, w in g.edges})
    rank = {w: r for r, w in enumerate(weights)}
    src = [u for u, _, _ in g.edges]
    dst = [v for _, v, _ in g.edges]
    erank = [rank[w] for _, _, w in g.edges]
    order = sorted(range(g.m), key=lambda i: (erank[i], i))

    h1 = set()
    never = len(weights)  # merge rank of arcs that never close a cycle
    # (lo, hi, undecided arcs in (weight, edge index) order)
    stack = [(0, never, [e for e in order if src[e] != dst[e]])]
    while stack:
        lo, hi, arcs = stack.pop()
        if lo == never:
            continue
        mapped = []
        for e in arcs:
            a, b = find(src[e]), find(dst[e])
            if a != b:  # else joined below lo, so below this arc's weight
                mapped.append((a, b, e))
        if lo < hi:
            mid = (lo + hi) // 2
            low = [arc for arc in mapped if erank[arc[2]] <= mid]
            comp = {x: k for k, nodes in enumerate(_scc_of_arcs(low)) for x in nodes}
            left = []
            right = []
            for a, b, e in mapped:
                if erank[e] <= mid and a in comp and comp[a] == comp.get(b):
                    left.append(e)
                else:
                    right.append(e)
            if right:
                stack.append((mid + 1, hi, right))
            if left:
                stack.append((lo, mid, left))
            continue
        oadj = {}
        iadj = {}
        for a, b, e in mapped:
            oadj.setdefault(a, []).append((b, e))
            iadj.setdefault(b, []).append((a, e))
        comps = [sorted(c, key=min_leaf.__getitem__)
                 for c in _scc_of_arcs(mapped)]
        for kids in sorted(comps, key=lambda c: min_leaf[c[0]]):
            root = kids[0]
            h1.update(_span_arcs(root, kids, oadj))
            h1.update(_span_arcs(root, kids, iadj))
            node = len(label)
            label.append(weights[lo])
            parent.append(-1)
            children.append(tuple(kids))
            min_leaf.append(min_leaf[root])
            uf.append(node)
            for x in kids:
                parent[x] = node
                uf[x] = node
    tree = MergeTree(n, label, parent, children, min_leaf)
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
             _dist=None, _graphs: dict | None = None) -> ContractionBundle:
    """Cut g down to the weight window [x_lo, x_hi].

    In order: groups mutually reachable within weight x_lo melt into one
    super-vertex; edges heavier than x_hi drop; edges whose endpoints
    have bottleneck distance above x_hi drop (no cycle this cheap uses
    them); vertices left without any edge drop.  Parallel super-edges
    keep only the lightest per ordered pair.  Sources follow their
    vertices and silently vanish when removed.

    _dist and _graphs are internal, for build_scales: _dist holds
    tree.distance of every edge's endpoints, by edge index, and _graphs
    maps (vertex_map, edge_map) to the Graph already built for an equal
    window, which is then returned again instead of a copy.
    """
    if x_lo > x_hi:
        raise ValueError("window must satisfy x_lo <= x_hi")
    for s in sources:
        if not (0 <= s < g.n):
            raise ValueError(f"source {s} is not a vertex")
    leader = tree.partition_at(x_lo)
    survivors = {}
    for eidx, (u, v, w) in enumerate(g.edges):
        if w > x_hi:
            continue
        lu, lv = leader[u], leader[v]
        if lu == lv:
            continue
        d = tree.distance(u, v) if _dist is None else _dist[eidx]
        if d is UNREACHABLE or d > x_hi:
            continue
        key = (lu, lv)
        cur = survivors.get(key)
        if cur is None or (w, eidx) < cur:
            survivors[key] = (w, eidx)

    present = {a for a, _ in survivors} | {b for _, b in survivors}
    order = sorted(present, key=lambda ld: tree.min_leaf[ld])
    cid = {ld: i for i, ld in enumerate(order)}

    pairs = sorted(survivors.items(), key=lambda kv: kv[1][1])
    edge_map = tuple(eidx for _, (_, eidx) in pairs)

    vmap = tuple(cid.get(leader[v]) for v in range(g.n))

    graphs = {} if _graphs is None else _graphs
    graph = graphs.get((vmap, edge_map))
    if graph is None:
        graph = graphs[vmap, edge_map] = Graph(
            len(order), [(cid[lu], cid[lv], w) for (lu, lv), (w, _) in pairs])

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
    when max(w, d) <= 2^t and d > 2^t/n.  Candidate t values come from
    logarithms, then get filtered with the same float predicates contract
    applies, so enumeration and contraction cannot disagree.

    Each edge's bottleneck distance is looked up once and handed to every
    contract call, and windows with equal vertex and edge maps share one
    Graph object, so a cover of one window can hand its searches on to
    the next.
    """
    n = g.n
    if n < 2 or g.m == 0:
        return []
    dist = [tree.distance(u, v) for u, v, _ in g.edges]
    cand = set()
    for (u, v, w), d in zip(g.edges, dist):
        if u == v or d is UNREACHABLE:
            continue
        lo = math.floor(math.log2(max(w, d))) - 2
        hi = math.ceil(math.log2(d * n)) + 2
        for t in range(lo, hi + 1):
            x = 2.0 ** t
            if max(w, d) <= x and d > x / n:
                cand.add(t)
    bundles = []
    graphs = {}
    for t in sorted(cand):
        x = 2.0 ** t
        b = contract(g, sources, x / n, x, tree, _dist=dist, _graphs=graphs)
        assert b.graph.m > 0, "enumerated scale contracted to nothing"
        bundles.append(replace(b, t=t))
    return bundles
