"""Randomized digraph partitioning with exponential-clock radii.

Each center draws a radius from Exp(ln(s)/r); a vertex joins the center
whose clock reaches it first, measured by r_u - d(u, v) (or the reverse
distance for inward clustering).  Vertices no clock reaches form a
residual part.  Shifting each center's start by maxr - r_u turns every
assignment into one multi-source search, the shared Dijkstra in graph.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .graph import OUT, UNREACHABLE, Graph, dijkstra, membership, vertex_ids


@dataclass(frozen=True)
class Cluster:
    """One part of a Partition.

    radius is the sampled clock value r_u.  reach is the largest observed
    center-to-member distance (member-to-center for inward runs); it is
    recovered from the search labels, so it carries their float rounding.
    """

    center: int
    radius: float
    members: frozenset
    reach: float


@dataclass(frozen=True)
class Partition:
    """Clusters ordered by center id, plus the residual of unclaimed vertices."""

    clusters: tuple
    residual: frozenset

    def parts(self):
        out = [c.members for c in self.clusters]
        if self.residual:
            out.append(self.residual)
        return out

    def same_part(self, u, v) -> bool:
        for c in self.clusters:
            if u in c.members:
                return v in c.members
        return u in self.residual and v in self.residual


def cluster(g: Graph, restrict, centers, r: float, s: int, direction: str = OUT,
            rng: random.Random | None = None) -> Partition:
    """Partition G(restrict) around `centers` with clock rate ln(s)/r.

    Each center u draws its radius r_u from rng.expovariate, in ascending
    center order.  A vertex v is claimed by the center u maximizing
    r_u - d(u, v) (direction IN uses d(v, u)) when that maximum is
    positive; ties go to the smallest center id.  Unclaimed vertices form
    the residual, which never exceeds |restrict| - |centers|.
    """
    if not isinstance(s, int) or s < 2:
        raise ValueError("s must be an integer >= 2")
    if not 0 < r < math.inf:
        raise ValueError("r must be positive and finite")
    if rng is None:
        raise ValueError("rng is required")
    member = membership(g, restrict)
    U = sorted(set(centers))
    for u in U:
        if not (0 <= u < g.n) or not member[u]:
            raise ValueError(f"center {u} not inside restrict")
    if not U:
        return Partition((), frozenset(vertex_ids(g, restrict)))

    rate = math.log(s) / r
    rad = {u: rng.expovariate(rate) for u in U}

    # Each center starts at offset maxr - r_u, so the smallest shifted
    # distance is the largest r_u - d(u, v), and the search's (distance,
    # owner) order gives the smallest-center tie-break exactly.
    maxr = max(rad.values())
    dist, owner, _ = dijkstra(g, member, [(maxr - rad[u], u) for u in U], direction)

    claimed = {u: [] for u in U}
    residual = []
    for v in vertex_ids(g, restrict):
        d = dist[v]
        if d is not UNREACHABLE and d < maxr:
            claimed[owner[v]].append(v)
        else:
            residual.append(v)

    clusters = []
    for u in U:
        if not claimed[u]:
            continue
        offset = maxr - rad[u]
        reach = max(dist[v] - offset for v in claimed[u])
        clusters.append(Cluster(u, rad[u], frozenset(claimed[u]), reach))
    return Partition(tuple(clusters), frozenset(residual))
