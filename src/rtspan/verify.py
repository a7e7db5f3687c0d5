"""Brute-force oracles and guarantee checks.

Everything here recomputes from scratch by a different route than the
construction code: dense Floyd-Warshall for distances, threshold sweeps
with SCC labeling for bottleneck distances.  Oracles work at the numeric
boundary (np.inf for unreachable) since they hand out matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .graph import IN, OUT, UNREACHABLE, Graph, sssp, vertex_ids


def oracle_one_way_all_pairs(g: Graph, restrict=None, edge_indexes=None):
    """(ids, matrix) of one-way shortest distances by Floyd-Warshall.

    Rows and columns follow sorted(restrict); unreachable is np.inf.
    edge_indexes limits the edge set without renumbering vertices, which
    keeps subgraph distances comparable to the host graph's.
    """
    ids = vertex_ids(g, restrict)
    pos = {v: i for i, v in enumerate(ids)}
    k = len(ids)
    dist = np.full((k, k), np.inf)
    np.fill_diagonal(dist, 0.0)
    source = g.edges if edge_indexes is None else [g.edges[i] for i in edge_indexes]
    for u, v, w in source:
        iu = pos.get(u)
        iv = pos.get(v)
        if iu is None or iv is None:
            continue
        if w < dist[iu, iv]:
            dist[iu, iv] = w
    for mid in range(k):
        np.minimum(dist, dist[:, mid : mid + 1] + dist[mid : mid + 1, :], out=dist)
    return ids, dist


def oracle_round_trip_all_pairs(g: Graph, restrict=None, edge_indexes=None):
    """(ids, matrix) of round-trip distances: out plus back."""
    ids, dist = oracle_one_way_all_pairs(g, restrict, edge_indexes)
    return ids, dist + dist.T


def _scc_labels(g: Graph, max_weight):
    rows = []
    cols = []
    for u, v, w in g.edges:
        if w <= max_weight:
            rows.append(u)
            cols.append(v)
    mat = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.n, g.n))
    _, labels = connected_components(mat, directed=True, connection="strong")
    return labels


def oracle_linfty_matrix(g: Graph) -> np.ndarray:
    """All-pairs bottleneck round-trip distances, np.inf where none."""
    n = g.n
    out = np.full((n, n), np.inf)
    np.fill_diagonal(out, 0.0)
    for w in sorted({w for _, _, w in g.edges}):
        labels = _scc_labels(g, w)
        co = labels[:, None] == labels[None, :]
        out = np.where(co & np.isinf(out), float(w), out)
    return out


def _source_ids(g: Graph, sources):
    """Sorted distinct sources, each checked to be a vertex of g."""
    srcs = sorted(set(sources))
    for s in srcs:
        if not (0 <= s < g.n):
            raise ValueError(f"source {s} is not a vertex")
    return srcs


@dataclass(frozen=True)
class StretchReport:
    bound: float
    qualifying_pairs: int
    finite_violations: int
    infinite_violations: int
    worst_ratio: float
    worst_pair: tuple | None
    passed: bool


def check_stretch(g: Graph, subgraph_edges, sources, bound: float) -> StretchReport:
    """Compare round-trip distances in the subgraph against the host graph
    for every (source, vertex) pair that is round-trip connected in the
    host.  A qualifying pair unreachable in the subgraph is an infinite
    violation; a finite one fails when its ratio exceeds the bound."""
    if math.isnan(bound):
        raise ValueError("bound must be a number, not NaN")
    srcs = _source_ids(g, sources)
    _, full = oracle_round_trip_all_pairs(g)
    _, sub = oracle_round_trip_all_pairs(g, edge_indexes=subgraph_edges)
    a = full[srcs, :]
    b = sub[srcs, :]
    qual = np.isfinite(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(a > 0, b / a, 1.0)
    inf_mask = qual & ~np.isfinite(b)
    fin_mask = qual & np.isfinite(b)
    viol_mask = fin_mask & (ratio > bound + 1e-9)
    worst_ratio = 1.0
    worst_pair = None
    if inf_mask.any():
        i, j = np.argwhere(inf_mask)[0]
        worst_ratio = math.inf
        worst_pair = (srcs[i], int(j))
    elif qual.any():
        flat = np.where(qual, ratio, -np.inf)
        i, j = np.unravel_index(np.argmax(flat), flat.shape)
        worst_ratio = float(flat[i, j])
        worst_pair = (srcs[i], int(j))
    n_inf = int(inf_mask.sum())
    n_fin = int(viol_mask.sum())
    return StretchReport(
        bound=float(bound),
        qualifying_pairs=int(qual.sum()),
        finite_violations=n_fin,
        infinite_violations=n_inf,
        worst_ratio=worst_ratio,
        worst_pair=worst_pair,
        passed=(n_fin == 0 and n_inf == 0),
    )


@dataclass(frozen=True)
class CoverReport:
    radius: float
    qualifying_pairs: int
    uncovered_count: int
    uncovered_sample: tuple
    ball_radii: tuple
    max_ball_radius: float
    radius_bound: float
    radius_ok: bool
    failure_count: int
    passed: bool


def check_cover(g: Graph, cover, sources, radius=None) -> CoverReport:
    """Check that every (source, vertex) pair within round-trip distance
    `radius` shares a part, and measure each ball's realized round-trip
    radius inside its own tree edges.

    Failure parts count as parts for coverage; they carry no radius
    guarantee.  passed reflects coverage only, radius_ok is separate.
    A ball repeated across trials is measured once.  radius defaults to
    the cover's target distance R, which a recursive_cover result lacks.
    """
    r_q = cover.R if radius is None else radius
    if r_q is None:
        raise ValueError("radius is required for a cover without a target distance R")
    r_q = float(r_q)
    if not r_q >= 0.0:
        raise ValueError("radius must be a non-negative number")
    srcs = _source_ids(g, sources)
    _, full = oracle_round_trip_all_pairs(g)
    parts = [b.members for b in cover.balls] + list(cover.failure_parts)
    masks = np.zeros((len(parts), g.n), dtype=bool)
    for i, p in enumerate(parts):
        masks[i, list(p)] = True
    qualifying = 0
    uncovered = []
    for s in srcs:
        need = np.where(full[s] <= r_q)[0]
        qualifying += len(need)
        has_s = masks[:, s]
        covered = masks[has_s].any(axis=0) if has_s.any() else np.zeros(g.n, dtype=bool)
        for v in need:
            if not covered[v]:
                uncovered.append((s, int(v)))

    balls = [(b.center, b.members, b.rt_tree_edges) for b in cover.balls]
    measured = {}
    for center, members, tree in dict.fromkeys(balls):
        touched = {center}
        for eidx in tree:
            u, v, _ = g.edges[eidx]
            touched.add(u)
            touched.add(v)
        ids, dist = oracle_one_way_all_pairs(g, restrict=touched, edge_indexes=tree)
        at = np.searchsorted(ids, [center, *members])  # the center first, at round trip 0
        measured[center, members, tree] = float(np.max(dist[at[0], at] + dist[at, at[0]]))
    radii = [measured[b] for b in balls]

    radius_bound = 2.0 * (cover.params.c + 1) * cover.r
    max_radius = max(radii) if radii else 0.0
    return CoverReport(
        radius=r_q,
        qualifying_pairs=qualifying,
        uncovered_count=len(uncovered),
        uncovered_sample=tuple(uncovered[:20]),
        ball_radii=tuple(radii),
        max_ball_radius=max_radius,
        radius_bound=radius_bound,
        radius_ok=bool(max_radius <= radius_bound + 1e-9),
        failure_count=len(cover.failure_parts),
        passed=(len(uncovered) == 0),
    )


@dataclass(frozen=True)
class ProbabilityReport:
    """Monte Carlo outcome tested against a lower bound at three sigma."""

    trials: int
    successes: int
    bound: float

    @property
    def rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    @property
    def sigma(self) -> float:
        if self.trials == 0:
            return 0.0
        return math.sqrt(self.bound * (1.0 - self.bound) / self.trials)

    @property
    def passed(self) -> bool:
        return self.rate >= self.bound - 3.0 * self.sigma


def partition_probability_trial(g: Graph, pair, centers, r, s, direction, trials, rng) -> ProbabilityReport:
    """Repeatedly partition and count how often the pair lands together.

    The lower bound is s^(-R/r) with R the pair's round-trip distance;
    the pair must be round-trip connected for that to mean anything.
    """
    from .partition import cluster

    u, v = pair
    fwd = sssp(g, None, u, OUT).dist[v]
    back = sssp(g, None, u, IN).dist[v]
    if fwd is UNREACHABLE or back is UNREACHABLE:
        raise ValueError("pair is not round-trip connected")
    rt = fwd + back
    bound = float(s) ** (-rt / r)
    hits = 0
    for _ in range(trials):
        part = cluster(g, None, centers, r, s, direction=direction, rng=rng)
        if part.same_part(u, v):
            hits += 1
    return ProbabilityReport(trials=trials, successes=hits, bound=bound)


def stretch_bound(k: int, n: int, c: int = 4) -> float:
    """Round-trip stretch guarantee of the construction at these settings."""
    if n < 1:
        raise ValueError("n must be positive")
    return 2.0 * (2.0 * (c + 1) * 6.0 * k * math.log(max(n, 1)) + 1.0)
