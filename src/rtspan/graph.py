"""Weighted digraph core: representation, edge-list I/O, the one
multi-source Dijkstra every search shares, and round-trip balls with
certifying trees.

Vertex ids are dense integers 0..n-1.  Edge weights are strictly positive
finite floats.  Missing distances are reported as the module-level
UNREACHABLE marker, never as a numeric sentinel, so they cannot silently
take part in arithmetic.  A narrow numpy/scipy boundary (distance_matrix)
exists for bulk distance queries; infinities stay behind that boundary.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush

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

    edges is a tuple of (src, dst, weight).  Adjacency lists carry
    (neighbor, weight, edge_index) triples so that searches can report
    exactly which edges their trees use.  Instances must not be mutated
    after construction; every operation in this package treats them as
    shared read-only values.
    """

    __slots__ = ("n", "m", "edges", "out_adj", "in_adj", "_csr")

    def __init__(self, n, edges):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        out_adj = [[] for _ in range(n)]
        in_adj = [[] for _ in range(n)]
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
            out_adj[u].append((v, w, idx))
            in_adj[v].append((u, w, idx))
        self.n = n
        self.m = len(cleaned)
        self.edges = tuple(cleaned)
        self.out_adj = tuple(tuple(a) for a in out_adj)
        self.in_adj = tuple(tuple(a) for a in in_adj)
        self._csr = None

    def adjacency(self, direction):
        if direction == OUT:
            return self.out_adj
        if direction == IN:
            return self.in_adj
        raise ValueError(f"direction must be OUT or IN, got {direction!r}")

    def weight_csr(self):
        """Sparse weight matrix, minimum weight per ordered pair, cached."""
        if self._csr is None:
            best = {}
            for u, v, w in self.edges:
                key = (u, v)
                if key not in best or w < best[key]:
                    best[key] = w
            if best:
                rows = np.fromiter((k[0] for k in best), dtype=np.int64, count=len(best))
                cols = np.fromiter((k[1] for k in best), dtype=np.int64, count=len(best))
                data = np.fromiter(best.values(), dtype=np.float64, count=len(best))
            else:
                rows = cols = np.zeros(0, dtype=np.int64)
                data = np.zeros(0, dtype=np.float64)
            self._csr = csr_matrix((data, (rows, cols)), shape=(self.n, self.n))
        return self._csr

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


def membership(g: Graph, restrict):
    """Boolean per-vertex membership list; restrict=None selects every vertex."""
    if restrict is None:
        return [True] * g.n
    member = [False] * g.n
    for v in restrict:
        if not (0 <= v < g.n):
            raise ValueError(f"restrict contains invalid vertex id {v}")
        member[v] = True
    return member


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
    """Shortest-path labels from one Dijkstra run.

    dist[v] is a float or UNREACHABLE.  parent_edge[v] is the index of the
    edge that last relaxed v (None at the source and off the search), so
    following parents reconstructs a shortest-path tree.
    """

    source: int
    direction: str
    dist: tuple
    parent_edge: tuple

    def reached(self, v) -> bool:
        return self.dist[v] is not UNREACHABLE


def dijkstra(g: Graph, member, seeds, direction: str):
    """Multi-source binary-heap Dijkstra inside the vertices marked in member.

    seeds holds distinct (offset, seed) starts: seed begins at distance
    offset and owns the vertices its search reaches first.  A vertex takes
    the smallest (distance, owner) pair over all seeds, so equal distances
    go to the smaller seed.  Returns per-vertex lists dist (UNREACHABLE off
    the search), owner and parent_edge (None at seeds and off the search).
    """
    adj = g.adjacency(direction)
    dist = [UNREACHABLE] * g.n
    owner = [None] * g.n
    parent = [None] * g.n
    done = [False] * g.n
    heap = []
    for d, u in seeds:
        dist[u] = d
        owner[u] = u
        heappush(heap, (d, u, u))
    while heap:
        d, c, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w, eidx in adj[u]:
            if done[v] or not member[v]:
                continue
            nd = d + w
            cur = dist[v]
            if cur is UNREACHABLE or nd < cur or (nd == cur and c < owner[v]):
                dist[v] = nd
                owner[v] = c
                parent[v] = eidx
                heappush(heap, (nd, c, v))
    return dist, owner, parent


def sssp(g: Graph, restrict, source: int, direction: str = OUT) -> DistanceVector:
    """Single-source Dijkstra inside the induced subgraph G(restrict).

    direction OUT yields d(source, v); IN yields d(v, source) by walking
    the reverse adjacency.  Vertices outside restrict keep UNREACHABLE.
    """
    member = membership(g, restrict)
    if not (0 <= source < g.n) or not member[source]:
        raise ValueError(f"source {source} not inside restrict")
    dist, _, parent = dijkstra(g, member, [(0.0, source)], direction)
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
                    _memo: dict | None = None) -> BallResult:
    """Members are the v in restrict with d(center,v)+d(v,center) <= radius,
    both legs measured inside G(restrict).

    The members are a prefix of the vertices in round-trip distance order,
    so a ball is fixed by its center and member count.  _memo is internal:
    a dict shared by calls over one g and restrict that keeps, per center,
    the two searches and the (members, tree edges) of each member count
    found so far, so repeated carves from one working set search once.
    """
    if not 0 <= radius < math.inf:
        raise ValueError("radius must be non-negative and finite")
    known = None if _memo is None else _memo.get(center)
    if known is None:
        fwd = sssp(g, restrict, center, OUT)
        bwd = sssp(g, restrict, center, IN)
        ranked = sorted((fwd.dist[v] + bwd.dist[v], v) for v in vertex_ids(g, restrict)
                        if fwd.reached(v) and bwd.reached(v))
        known = (fwd, bwd, [d for d, _ in ranked], [v for _, v in ranked], {})
        if _memo is not None:
            _memo[center] = known
    fwd, bwd, keys, order, balls = known
    count = bisect_right(keys, radius)
    ball = balls.get(count)
    if ball is None:
        members = order[:count]
        tree = set()
        for dv in (fwd, bwd):
            walked = set()
            for v in members:
                # climb parent pointers until we hit the center or a chain
                # already collected
                while v != center and v not in walked:
                    walked.add(v)
                    e = dv.parent_edge[v]
                    tree.add(e)
                    src, dst, _ = g.edges[e]
                    v = src if dv.direction == OUT else dst
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
    csr = g.weight_csr()
    if len(verts) != g.n:
        idx = np.asarray(verts, dtype=np.int64)
        sub = csr[idx][:, idx]
    else:
        sub = csr
    if direction == IN:
        sub = sub.T
    elif direction != OUT:
        raise ValueError(f"direction must be OUT or IN, got {direction!r}")
    if not rows:
        return np.zeros((0, len(verts)))
    return np.atleast_2d(_sp_dijkstra(sub, directed=True, indices=rows))
