"""Shared test helpers and the acceptance summary section."""

import random

from rtspan.cli import generate_graph
from rtspan.graph import Graph

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
