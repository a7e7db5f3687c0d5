"""Weighted digraph core: representation, edge-list I/O, the one search
(distance_matrix, scipy's Dijkstra) and the shortest-path trees and
round-trip balls read off its distance rows.

Vertex ids are dense integers 0..n-1.  Edge weights are strictly positive
finite floats.  Missing distances are reported as the module-level
UNREACHABLE marker, never as a numeric sentinel, so they cannot silently
take part in arithmetic.  A narrow numpy/scipy boundary (distance_matrix)
serves every distance query; infinities stay behind that boundary.  A
tree takes no search of its own: each vertex's parent is the edge a
binary-heap Dijkstra keyed by (d, id) keeps, the tight in-edge
(d[tail] + w == d[v]) whose tail it settles first, least index first.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

OUT = "out"
IN = "in"


class _Unreachable:
    """Identity-compared marker for 'no path'."""

    __slots__ = ()

    def __repr__(self):
        return "UNREACHABLE"


UNREACHABLE = _Unreachable()


class EdgeListError(ValueError):
    """Malformed edge-list text."""


class Graph:
    """Immutable weighted digraph.

    edges is a tuple of (src, dst, weight); trees name their edges by
    index into it.  Instances must not be mutated after construction;
    every operation in this package treats them as shared read-only values.
    """

    __slots__ = ("n", "m", "edges", "_arrays", "_pairs")

    def __init__(self, n, edges):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        cleaned = []
        for idx, (u, v, w) in enumerate(edges):
            u = int(u)
            v = int(v)
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError(f"edge {idx}: endpoint outside [0, {n})")
            w = float(w)
            if not w > 0.0 or math.isinf(w):
                raise ValueError(f"edge {idx}: weight must be positive and finite")
            cleaned.append((u, v, w))
        self.n = n
        self.m = len(cleaned)
        self.edges = tuple(cleaned)
        self._arrays = None
        self._pairs = {}

    @classmethod
    def _from_arrays(cls, n, src, dst, w):
        """A Graph over edges given as int64 src/dst and float64 weight
        arrays that come from an already validated Graph, so they are not
        checked again; the arrays become its _edge_arrays()."""
        g = cls.__new__(cls)
        g.n = n
        g.m = len(w)
        g.edges = tuple(zip(src.tolist(), dst.tolist(), w.tolist()))
        g._arrays = (src, dst, w)
        g._pairs = {}
        return g

    def _edge_arrays(self):
        """(src, dst, weight) of every edge as numpy arrays, cached."""
        if self._arrays is None:
            src, dst, w = zip(*self.edges) if self.edges else ((), (), ())
            self._arrays = (np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
                            np.array(w, dtype=np.float64))
        return self._arrays

    def _weight_pairs(self, direction=OUT):
        """(row, col, weight, csr) for the lightest edge of each ordered
        pair, sorted by (row, col), with the whole-graph CSR matrix over
        them, cached.  Rows are tails for OUT and heads for IN, so the IN
        matrix is the transpose of the OUT one."""
        pairs = self._pairs.get(direction)
        if pairs is None:
            src, dst, w = self._edge_arrays()
            row, col = (src, dst) if direction == OUT else (dst, src)
            order = np.lexsort((w, col, row))  # each pair's lightest edge first
            row, col, w = row[order], col[order], w[order]
            first = np.ones(len(w), dtype=bool)
            first[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
            # int32, the index type of scipy's graph routines
            row, col, w = row[first].astype(np.int32), col[first].astype(np.int32), w[first]
            pairs = self._pairs[direction] = (row, col, w, _csr(self.n, row, col, w))
        return pairs

    def weight_csr(self):
        """Sparse weight matrix, minimum weight per ordered pair, cached."""
        return self._weight_pairs()[3]

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def parse_edge_list(text) -> Graph:
    """Parse "n m" header plus one "src dst weight" line per edge.

    Blank lines are ignored.  Raises EdgeListError with a distinct message
    for each failure mode: bad header, malformed edge line, edge count
    mismatch, vertex id out of range, nonpositive weight.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise EdgeListError("missing header line 'n m'")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise EdgeListError(f"header must be two integers, got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise EdgeListError("header counts must be non-negative")
    body = lines[1:]
    if len(body) != m:
        raise EdgeListError(f"edge count mismatch: header declares {m}, found {len(body)}")
    edges = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 3:
            raise EdgeListError(f"malformed edge line {ln!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise EdgeListError(f"malformed edge line {ln!r}") from None
        if not (0 <= u < n) or not (0 <= v < n):
            raise EdgeListError(f"vertex id out of range in line {ln!r}")
        if math.isnan(w) or math.isinf(w) or w <= 0.0:
            raise EdgeListError(f"nonpositive weight in line {ln!r}")
        edges.append((u, v, w))
    return Graph(n, edges)


def write_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list; weights use shortest round-tripping repr."""
    out = [f"{g.n} {g.m}"]
    for u, v, w in g.edges:
        out.append(f"{u} {v} {w!r}")
    return "\n".join(out) + "\n"


def vertex_ids(g: Graph, restrict):
    """Sorted list of the vertex ids selected by restrict."""
    if restrict is None:
        return list(range(g.n))
    ids = sorted(set(restrict))
    if ids and (ids[0] < 0 or ids[-1] >= g.n):
        raise ValueError("restrict contains invalid vertex id")
    return ids


@dataclass(frozen=True)
class DistanceVector:
    """Shortest-path labels from one source.

    dist[v] is a float or UNREACHABLE.  parent_edge[v] is the index of v's
    tree edge (None at the source and off the search), so following
    parents reconstructs a shortest-path tree.
    """

    source: int
    direction: str
    dist: tuple
    parent_edge: tuple

    def reached(self, v) -> bool:
        return self.dist[v] is not UNREACHABLE


def _settle_rank(d, tail, head, level):
    """Each vertex's place in the order a binary-heap Dijkstra keyed by
    (d, id) settles the vertices, unreached ones last, given the tight
    edges tail -> head and, in level, those with d[tail] == d[head].

    The order is (d, id), but a head that only level edges reach enters
    the heap, at its tail's d, when the first of those tails is settled.
    """
    late = set(head[level].tolist()) - set(head[~level].tolist())
    succ = {}
    for x, y in zip(tail[level].tolist(), head[level].tolist()):
        succ.setdefault(x, []).append(y)
    dl = d.tolist()
    queue = sorted((dl[v], v) for v in np.flatnonzero(d < np.inf).tolist() if v not in late)
    rank = np.full(len(dl), len(dl))
    for i, (dx, x) in enumerate(queue):  # grows past i as late heads are met
        rank[x] = i
        for y in succ.get(x, ()):
            if y in late:
                late.discard(y)
                insort(queue, (dx, y), lo=i + 1)
    return rank


def _parent_edges(g: Graph, verts, row, direction: str) -> dict:
    """The shortest-path tree of one distance row over G(verts), as
    {v: edge index} for every reached v but the source.

    row holds d(source, v) for direction OUT and d(v, source) for IN,
    aligned with verts.  v's parent is the tight in-edge (x -> v outward,
    v -> x inward), d[x] + w == d[v], with the least (settling rank of x,
    edge index) among the x settled before v: the heap's first tight
    relaxation of v.  The rank is (d[x], x) unless some tight edge adds
    nothing in float64 (w below half an ulp of d[x]).
    """
    src, dst, w = g._edge_arrays()
    tail, head = (src, dst) if direction == OUT else (dst, src)
    d = np.full(g.n, np.inf)
    d[verts] = row
    dt = d[tail]
    # outside G(verts) or unreached, d is inf, and no edge from there is tight
    e = np.flatnonzero((dt + w == d[head]) & (dt < np.inf))
    tail, head, dt = tail[e], head[e], dt[e]
    level = dt == d[head]
    if level.any():
        rank = _settle_rank(d, tail, head, level)
        keep = rank[tail] < rank[head]  # drops self-loops and tails settled later
        e, tail, head = e[keep], tail[keep], head[keep]
        order = np.lexsort((e, rank[tail], head))
    else:
        order = np.lexsort((e, tail, dt, head))  # by head, then (d[x], x, e)
    e, heads = e[order], head[order]
    first = np.ones(len(e), dtype=bool)
    first[1:] = heads[1:] != heads[:-1]
    return dict(zip(heads[first].tolist(), e[first].tolist()))


def sssp(g: Graph, restrict, source: int, direction: str = OUT) -> DistanceVector:
    """Single-source shortest paths inside the induced subgraph G(restrict):
    one distance_matrix row and the tree read off it.

    direction OUT yields d(source, v); IN yields d(v, source).  Vertices
    outside restrict keep UNREACHABLE.
    """
    verts = vertex_ids(g, restrict)
    row = distance_matrix(g, verts, [source], direction)[0]
    dist = [UNREACHABLE] * g.n
    for v, d in zip(verts, row.tolist()):
        dist[v] = d if d < math.inf else UNREACHABLE
    parent = [None] * g.n
    for v, e in _parent_edges(g, verts, row, direction).items():
        parent[v] = e
    return DistanceVector(source, direction, tuple(dist), tuple(parent))


@dataclass(frozen=True)
class BallResult:
    """A round-trip ball and the tree edges that certify its radius.

    rt_tree_edges is the union of a shortest-path out-tree and in-tree
    rooted at center and spanning members; it may pass through non-member
    vertices of the inducing restrict set.
    """

    center: int
    radius: float
    members: frozenset
    rt_tree_edges: frozenset


def round_trip_ball(g: Graph, restrict, center: int, radius: float, *,
                    _rows=None, _memo: dict | None = None) -> BallResult:
    """Members are the v in restrict with d(center,v)+d(v,center) <= radius,
    both legs measured inside G(restrict).

    The members are a prefix of the vertices in round-trip distance order,
    so a ball is fixed by its center and member count.  The order and the
    two trees come from the center's OUT and IN rows.  _rows and _memo are
    internal: a row store over g and restrict that gives those rows, and a
    dict shared by calls over one g, keyed by (restrict, center), that
    keeps the order, the trees and the (members, tree edges) of each member
    count found so far, so that a repeated carve reads no row again.
    """
    if not 0 <= radius < math.inf:
        raise ValueError("radius must be non-negative and finite")
    known = None if _memo is None else _memo.get((restrict, center))
    if known is None:
        verts = vertex_ids(g, restrict)
        i = bisect_left(verts, center)
        if i == len(verts) or verts[i] != center:
            raise ValueError(f"center {center} not inside restrict")
        if _rows is None:
            fwd, bwd = (distance_matrix(g, verts, [center], d)[0] for d in (OUT, IN))
        elif _rows.g is not g or _rows.verts != verts:
            raise ValueError("row store belongs to another working set")
        else:
            fwd, bwd = (_rows.rows_at(np.array([i]), d)[0] for d in (OUT, IN))
        rt = fwd + bwd
        # stable, so equal round trips stay in vertex order; inf sorts last
        ranked = np.argsort(rt, kind="stable")[:np.count_nonzero(rt < np.inf)]
        known = (rt[ranked].tolist(), np.asarray(verts)[ranked].tolist(),
                 _parent_edges(g, verts, fwd, OUT), _parent_edges(g, verts, bwd, IN), {})
        if _memo is not None:
            _memo[restrict, center] = known
    keys, order, out_tree, in_tree, balls = known
    count = bisect_right(keys, radius)
    ball = balls.get(count)
    if ball is None:
        members = order[:count]
        tree = set()
        # a parent edge leads back to its src outward, its dst inward
        for parent, back in ((out_tree, 0), (in_tree, 1)):
            walked = set()
            for v in members:
                # climb to the center or to a chain already collected
                while v != center and v not in walked:
                    walked.add(v)
                    e = parent[v]
                    tree.add(e)
                    v = g.edges[e][back]
        ball = balls[count] = (frozenset(members), frozenset(tree))
    return BallResult(center, float(radius), *ball)


def distance_matrix(g: Graph, restrict, sources, direction: str = OUT):
    """Batched Dijkstra over G(restrict) through scipy; numeric boundary API.

    Returns a dense array whose columns follow sorted(restrict) order and
    whose rows follow `sources`, given as vertex ids inside restrict.
    np.inf marks unreachable pairs here and must be converted before
    re-entering marker-based code.  direction IN yields distances TO each
    source.
    """
    verts = vertex_ids(g, restrict)
    pos = {v: i for i, v in enumerate(verts)}
    try:
        rows = [pos[s] for s in sources]
    except KeyError as exc:
        raise ValueError(f"source {exc.args[0]} not inside restrict") from None
    if direction not in (OUT, IN):
        raise ValueError(f"direction must be OUT or IN, got {direction!r}")
    if not rows:
        return np.zeros((0, len(verts)))
    row, col, w, sub = g._weight_pairs(direction)
    if len(verts) != g.n:
        # relabeling keeps the pairs of G(restrict) sorted by (row, col)
        at = np.full(g.n, -1, dtype=np.int32)
        at[verts] = np.arange(len(verts))
        row, col = at[row], at[col]
        keep = (row >= 0) & (col >= 0)
        sub = _csr(len(verts), row[keep], col[keep], w[keep])
    return np.atleast_2d(_sp_dijkstra(sub, directed=True, indices=rows))


def _csr(n, row, col, w):
    """The n x n CSR matrix of (row, col, w) triplets sorted by row."""
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return csr_matrix((w, col, indptr), shape=(n, n))
