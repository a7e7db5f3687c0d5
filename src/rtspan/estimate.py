"""Sampled estimation of in-/out-ball size fractions.

For each queried vertex u the estimator reports which fraction of the
working vertex set lies within one-way distance r of u, outward and
inward, from t = ceil(5 * eps^-2 * ln n) uniform samples drawn with
replacement.  Distances between the query side and the sample side come
from one batched Dijkstra per direction over whichever side is smaller,
and the sample hits of every queried vertex are counted with one integer
matrix product.

The Dijkstra rows are held in a row store keyed by (direction, source),
and each estimate searches only the rows its store lacks.  A store over
one working set can be shared by several estimates over that same set:
the cover shares one across all trials that start from the full vertex
set, so each such row is searched once per cover rather than once per
trial.  An estimate still asks for at most min(|centers|, t) rows, so
its own search cost keeps the O(eps^-2 log n) bound; sharing only
removes repeats.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph import IN, OUT, Graph, distance_matrix, vertex_ids


def sample_count(n: int, epsilon: float) -> int:
    """t = ceil(5 * eps^-2 * ln n), floored at one sample for n = 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return max(1, math.ceil(5.0 * epsilon ** -2 * math.log(n)))


@dataclass(frozen=True)
class FractionEstimates:
    """Ball-fraction estimates for one radius.

    out_counts/in_counts hold raw sample hits per queried vertex, so every
    reported fraction is exactly a multiple of 1/t.  sample records the
    drawn vertex ids with multiplicity (length t).
    """

    r: float
    epsilon: float
    t: int
    sample: tuple
    out_counts: dict
    in_counts: dict

    def f_out(self, u) -> float:
        return self.out_counts[u] / self.t

    def f_in(self, u) -> float:
        return self.in_counts[u] / self.t


class _RowStore:
    """Dijkstra rows over one fixed working set, one per (direction, source),
    each searched at most once however many estimates ask for it."""

    def __init__(self, g: Graph, verts):
        self.g = g
        self.verts = verts
        self.rows = {OUT: {}, IN: {}}

    def matrix(self, sources, direction):
        """Rows for `sources` in order; one batched search for those missing."""
        held = self.rows[direction]
        missing = [v for v in sources if v not in held]
        if missing:
            block = distance_matrix(self.g, self.verts, sources=missing, direction=direction)
            held.update(zip(missing, block))
        if not sources:
            return np.zeros((0, len(self.verts)))
        return np.array([held[v] for v in sources])


def estimate_ball_fractions(g: Graph, restrict, r: float, epsilon: float,
                            centers, rng: random.Random, *,
                            _rows: _RowStore | None = None) -> FractionEstimates:
    """Estimate out- and in-ball fractions at radius r for every vertex in
    centers, within G(restrict).  centers must be a subset of restrict.

    _rows is internal: a row store over the same g and restrict, shared
    between estimates so that no row is searched twice.
    """
    if not 0 < r < math.inf:
        raise ValueError("r must be positive and finite")
    verts = vertex_ids(g, restrict)
    n = len(verts)
    if n == 0:
        raise ValueError("restrict must be non-empty")
    vset = set(verts)
    U = sorted(set(centers))
    for u in U:
        if u not in vset:
            raise ValueError(f"queried vertex {u} not inside restrict")
    if _rows is None:
        _rows = _RowStore(g, verts)
    elif _rows.g is not g or _rows.verts != verts:
        raise ValueError("row store belongs to another working set")
    t = sample_count(n, epsilon)
    sample = [verts[rng.randrange(n)] for _ in range(t)]

    pos = {v: i for i, v in enumerate(verts)}
    drawn = Counter(sample)
    distinct = sorted(drawn)
    w = np.asarray([drawn[v] for v in distinct], dtype=np.int64)

    if len(U) <= len(distinct):
        # search from the query side: row u holds d(u, .) outward, d(., u) inward
        cols = [pos[v] for v in distinct]
        out_hits = (_rows.matrix(U, OUT)[:, cols] <= r) @ w
        in_hits = (_rows.matrix(U, IN)[:, cols] <= r) @ w
    else:
        # search from the sample side: row v holds d(v, .) outward, d(., v)
        # inward; d(v, u) <= r counts toward f_in(u), d(u, v) <= r toward f_out(u)
        cols = [pos[u] for u in U]
        in_hits = w @ (_rows.matrix(distinct, OUT)[:, cols] <= r)
        out_hits = w @ (_rows.matrix(distinct, IN)[:, cols] <= r)

    return FractionEstimates(float(r), float(epsilon), t, tuple(sample),
                             dict(zip(U, out_hits.tolist())),
                             dict(zip(U, in_hits.tolist())))
