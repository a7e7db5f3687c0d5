"""Estimation of in-/out-ball size fractions, sampled or exact.

For each vertex u of the working set the estimator reports which
fraction of that set lies within one-way distance r of u, outward and
inward, from t = ceil(5 * eps^-2 * ln n) uniform samples drawn with
replacement, one rng.randrange(n) call each, as in Pachocki, Roditty,
Sidford, Tov and Vassilevska Williams (SODA 2018).  When t >= n the
sample would outnumber the working set, so every vertex is taken once
instead (t = n): the fractions are exact, nothing is drawn from rng, and
a shared row store keeps the estimate for later ones.

Distances always come from the sample side: one batched Dijkstra per
direction from the distinct samples, at most min(t, n) rows, however
large the working set.  The hits of every vertex are one matrix-vector
product of the 0/1 matrix [d <= r] of those rows with the sample
multiplicities, and stay exact integers.  The rows live in a row store
over the working set, which the caller may share between estimates over
that same set: an estimate then searches only the sample rows the store
lacks, and thresholds them again only when r changes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .graph import IN, OUT, Graph, distance_matrix, vertex_ids


def sample_count(n: int, epsilon: float) -> int:
    """t = ceil(5 * eps^-2 * ln n), floored at one sample for n = 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return max(1, math.ceil(5.0 * epsilon ** -2 * math.log(n)))


@dataclass(frozen=True, eq=False)
class FractionEstimates:
    """Ball-fraction estimates for one radius, as plain arrays.

    centers holds the working-set vertex ids, ascending, and
    out_hits/in_hits, aligned with them, how many of the t samples lie
    within one-way distance r of each, outward and inward; so every
    fraction f_out(u) = out_hits/t is exactly a multiple of 1/t.  sample
    holds the drawn vertex ids in draw order, with multiplicity (length t);
    an exact estimate has t = n, sample = centers and the true fractions.
    """

    r: float
    epsilon: float
    t: int
    centers: np.ndarray = field(repr=False)
    sample: np.ndarray = field(repr=False)
    out_hits: np.ndarray = field(repr=False)
    in_hits: np.ndarray = field(repr=False)

    def _fraction(self, hits, u) -> float:
        i = np.searchsorted(self.centers, u)
        if i == len(self.centers) or self.centers[i] != u:
            raise KeyError(f"vertex {u} is not in the working set")
        return int(hits[i]) / self.t

    def f_out(self, u) -> float:
        return self._fraction(self.out_hits, u)

    def f_in(self, u) -> float:
        return self._fraction(self.in_hits, u)


class _RowStore:
    """Dijkstra rows over one fixed working set, one per (direction, source),
    each searched at most once however many callers ask for it.

    Per direction, rows stacks the rows searched so far in one array, in
    search order; pos holds the working-set position of each row's source
    and at, per position, the index of its row (-1 while not searched).
    cut caches the 0/1 matrix [rows <= r] for the last radius asked, and is
    rebuilt when rows are added or r changes.  Rows are stacked as searched
    rather than laid out over the whole working set, so a store holds the
    rows its callers asked for, not n^2 distances.

    exact keeps the exact estimates (t >= n) by (r, epsilon).  balls is the
    carve memo of round_trip_ball; the cover keeps it on the root store
    only, keyed by (working set, center), for the carves from the whole
    set and from one-source working sets, so that it spans trials."""

    def __init__(self, g: Graph, verts):
        self.g = g
        self.verts = verts
        self.ids = np.asarray(verts, dtype=np.int64)
        self.ids.flags.writeable = False  # every estimate hands it out as centers
        n = len(verts)
        self.rows = {d: np.zeros((0, n)) for d in (OUT, IN)}
        self.pos = {d: np.zeros(0, dtype=np.int64) for d in (OUT, IN)}
        self.at = {d: np.full(n, -1, dtype=np.int64) for d in (OUT, IN)}
        self.cut = {OUT: None, IN: None}
        self.exact = {}
        self.balls = {}

    def fetch(self, cols, direction):
        """Search and stack, in one batched call, the rows at cols not held."""
        at = self.at[direction]
        missing = cols[at[cols] < 0]
        if len(missing):
            block = distance_matrix(self.g, self.verts, sources=self.ids[missing].tolist(),
                                    direction=direction)
            pos = self.pos[direction]
            at[missing] = np.arange(len(pos), len(pos) + len(missing))
            self.pos[direction] = np.concatenate((pos, missing))
            self.rows[direction] = np.concatenate((self.rows[direction], block))
            self.cut[direction] = None

    def rows_at(self, cols, direction):
        """The rows at positions cols, in that order, as a new array: row i
        holds d(verts[cols[i]], .) outward and d(., verts[cols[i]]) inward."""
        self.fetch(cols, direction)
        return self.rows[direction][self.at[direction][cols]]

    def hits(self, cols, direction, r, weights):
        """For every working-set position q, the sum of weights[p] over the
        held rows p whose entry at q is <= r, after fetching the rows at
        `cols`.  cols are ascending positions and must include every p with
        weights[p] != 0; other held rows add 0."""
        self.fetch(cols, direction)
        cut = self.cut[direction]
        if cut is None or cut[0] != r:
            cut = self.cut[direction] = (r, (self.rows[direction] <= r).astype(float))
        return weights[self.pos[direction]] @ cut[1]


def estimate_ball_fractions(g: Graph, restrict, r: float, epsilon: float,
                            rng: random.Random, *,
                            _rows: _RowStore | None = None) -> FractionEstimates:
    """Estimate out- and in-ball fractions at radius r for every vertex of
    G(restrict).

    Searches at most min(t, n) rows per direction, all from the sample
    side; when t >= n, every vertex is taken once and rng is not used.

    _rows is internal: a row store over the same g and restrict, shared
    between estimates so that no row is searched and no exact estimate
    is computed twice.
    """
    if not 0 < r < math.inf:
        raise ValueError("r must be positive and finite")
    verts = vertex_ids(g, restrict)
    n = len(verts)
    if n == 0:
        raise ValueError("restrict must be non-empty")
    if _rows is None:
        _rows = _RowStore(g, verts)
    elif _rows.g is not g or _rows.verts != verts:
        raise ValueError("row store belongs to another working set")
    t = sample_count(n, epsilon)
    key = (float(r), float(epsilon))
    if t < n:
        drawn = np.array([rng.randrange(n) for _ in range(t)])
        mult = np.bincount(drawn, minlength=n).astype(float)
        cols = np.flatnonzero(mult)  # positions of the distinct samples, ascending
    elif key in _rows.exact:
        return _rows.exact[key]
    else:  # exact: every vertex once, nothing drawn
        t, drawn, cols, mult = n, slice(None), np.arange(n), np.ones(n)

    # row v holds d(v, .) outward and d(., v) inward: d(v, u) <= r counts
    # toward f_in(u), d(u, v) <= r toward f_out(u).  Weighted by sample
    # multiplicity, the hits are sums of at most t integers, exact in float64.
    in_hits = _rows.hits(cols, OUT, r, mult).astype(np.int64)
    out_hits = _rows.hits(cols, IN, r, mult).astype(np.int64)
    est = FractionEstimates(*key, t, _rows.ids, _rows.ids[drawn], out_hits, in_hits)
    if t == n:  # exact, so kept for every later estimate at (r, epsilon)
        out_hits.flags.writeable = in_hits.flags.writeable = False
        _rows.exact[key] = est
    return est
