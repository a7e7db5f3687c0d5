"""Seeded input generators and workload definitions for the benchmark.

Every input is a function of the workload seed and the instance index
alone.  The library only ever sees the edge-list text and the source ids,
so parsing is part of what the benchmark times as set-up.  The generators
import rtspan lazily: it is importable once run.load_library set the path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "spanner" builds swrt_spanner; "bottleneck" the merge tree and scales
    family: str  # "grid" | "continuous" | "ring"
    n: int
    sources: int
    m: int = 0  # Erdős–Rényi edge count
    chords: int = 0  # ring chords
    k: int = 2


WORKLOADS = {
    w.name: w
    for w in (
        # distance work dominates: every carve takes the whole working set
        Workload("spanner-grid", "spanner", "grid", n=120, m=480, sources=4),
        # round-trip diameter exceeds the carve radius: partition runs
        Workload("spanner-ring", "spanner", "ring", n=200, chords=10, sources=4),
        # one Tarjan pass per distinct weight in the merge tree
        Workload("bottleneck-sparse", "bottleneck", "continuous", n=800, m=3200, sources=16),
    )
}


def erdos_renyi_text(n, m, rng, quantum):
    """Strongly connected Erdős–Rényi digraph as edge-list text; weights on
    the `quantum` grid in [1, 2], or continuous uniform in [1, 1000] when
    quantum is 0."""
    from rtspan.cli import generate_graph
    from rtspan.graph import write_edge_list

    w_max = 2.0 if quantum else 1000.0
    return write_edge_list(generate_graph(n, m, rng, 1.0, w_max, strongly_connected=True, quantum=quantum))


def ring_text(n, chords, rng):
    """Bidirected ring on n vertices plus `chords` random one-way chords,
    every weight log-uniform over [1, 1000]."""
    from rtspan.graph import Graph, write_edge_list

    draw = lambda: math.exp(rng.uniform(0.0, math.log(1000.0)))
    edges = []
    used = set()
    for i in range(n):
        j = (i + 1) % n
        for u, v in ((i, j), (j, i)):
            used.add((u, v))
            edges.append((u, v, draw()))
    while len(edges) < 2 * n + chords:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or (u, v) in used:
            continue
        used.add((u, v))
        edges.append((u, v, draw()))
    return write_edge_list(Graph(n, edges))


def make_input(w: Workload, seed: int, index: int) -> str:
    """Edge-list text of instance `index` of workload w under seed."""
    rng = random.Random(f"{seed}:{w.name}:{index}:graph")
    if w.family == "ring":
        return ring_text(w.n, w.chords, rng)
    return erdos_renyi_text(w.n, w.m, rng, 0.0625 if w.family == "grid" else 0.0)
