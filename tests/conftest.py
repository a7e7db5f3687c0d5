"""Shared test helpers and the acceptance summary section."""

import heapq
import random

from rtspan.cli import generate_graph
from rtspan.graph import OUT, UNREACHABLE, Graph

ACCEPTANCE_LINES = []


def record(line: str):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def edge_subgraph(g: Graph, edge_indexes) -> Graph:
    """The graph on the same vertices keeping only the given edges; its
    edge indexes follow the sorted originals, not the originals."""
    return Graph(g.n, [g.edges[i] for i in sorted(set(edge_indexes))])


def random_graph(tag: str, n: int, m: int, strongly_connected: bool = True):
    """Deterministic random graph keyed by a string tag.  Weights stay on
    the 1/16 grid so shortest-path sums are exact binary floats and every
    oracle comparison can be equality, not tolerance."""
    rng = random.Random(f"fixture:{tag}")
    return generate_graph(n, m, rng, strongly_connected=strongly_connected)


def ring_with_chords(tag: str, n: int, chords: int):
    """Deterministic bidirected ring plus one-way chords keyed by a string
    tag.  Weights are powers of two in [1, 512], exact binary floats, and
    spread widely enough that the round-trip diameter exceeds the carve
    radius: the cover partitions instead of carving the whole set."""
    rng = random.Random(f"fixture:{tag}")
    edges, used = [], set()
    for i in range(n):
        j = (i + 1) % n
        for u, v in ((i, j), (j, i)):
            used.add((u, v))
            edges.append((u, v, float(2 ** rng.randrange(10))))
    while len(edges) < 2 * n + chords:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in used:
            used.add((u, v))
            edges.append((u, v, float(2 ** rng.randrange(10))))
    return Graph(n, edges)


def heap_sssp(g, restrict, source, direction):
    """(dist, parent_edge) of a binary-heap Dijkstra over G(restrict) that
    settles vertices in (d, id) order, scans each vertex's edges by index
    and keeps the first strict improvement: the reference for sssp's
    distances and, among tied shortest paths, its tree edges, and the
    oracles' search independent of scipy."""
    adj = [[] for _ in range(g.n)]
    for idx, (u, v, w) in enumerate(g.edges):
        if direction == OUT:
            adj[u].append((v, w, idx))
        else:
            adj[v].append((u, w, idx))
    member = [False] * g.n
    for v in range(g.n) if restrict is None else restrict:
        member[v] = True
    dist = [UNREACHABLE] * g.n
    parent = [None] * g.n
    done = [False] * g.n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w, eidx in adj[u]:
            if done[v] or not member[v]:
                continue
            nd = d + w
            cur = dist[v]
            if cur is UNREACHABLE or nd < cur:
                dist[v] = nd
                parent[v] = eidx
                heapq.heappush(heap, (nd, v))
    return tuple(dist), tuple(parent)


def level_heavy_graph(seed):
    """Small random digraph with a few weights so large that the others add
    nothing (or round) in float64, so that many tight edges join vertices
    at equal distance, with self-loops."""
    rng = random.Random(f"level:{seed}")
    pool = ([1e17, 1.0, 3.0, 8.0, 12.0], [2.0 ** 60, 1.0, 64.0, 128.0, 256.0], [1e16, 0.5, 1.0, 2.0])[seed % 3]
    n = rng.randrange(3, 14)
    edges = [(rng.randrange(n), rng.randrange(n), rng.choice(pool)) for _ in range(rng.randrange(n, 4 * n))]
    edges += [(v, v, rng.choice(pool)) for v in rng.sample(range(n), 2)]  # self-loops
    return Graph(n, edges), rng
