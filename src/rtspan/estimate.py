"""Sampled estimation of in-/out-ball size fractions.

For each queried vertex u the estimator reports which fraction of the
working vertex set lies within one-way distance r of u, outward and
inward, from t = ceil(5 * eps^-2 * ln n) uniform samples drawn with
replacement.  The samples are the draws t calls of rng.randrange(n)
would return, leaving rng in the same state, but their random words are
taken in bulk and filtered with numpy instead of one call per draw.
Distances between the query side and the sample side come from one
batched Dijkstra per direction over whichever side is smaller.

The Dijkstra rows live in a row store over the working set: per
direction, one array of the rows searched so far and the 0/1 matrix
[d <= r] of those rows at the last radius asked.  The sample hits of
every queried vertex are then one matrix-vector product of that matrix
with the sample multiplicities, whichever side was searched, and stay
exact integers.  Each estimate searches only the rows its store lacks.
A store over one working set can be shared by several estimates over
that same set: the cover shares one across all trials that start from
the full vertex set, all at one radius, and the spanner hands it on to
the next window when that window is the same graph, so each such row is
searched once per run of equal windows, and thresholded once per cover,
rather than once per trial.  An estimate still asks for at most min(|centers|, t)
rows, so its own search cost keeps the O(eps^-2 log n) bound; sharing
only removes repeats.  The store also keeps the round-trip balls carved
from that working set (see round_trip_ball).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property

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
    """Ball-fraction estimates for one radius.

    out_counts/in_counts hold raw sample hits per queried vertex, so every
    reported fraction is exactly a multiple of 1/t.  sample records the
    drawn vertex ids with multiplicity (length t).  All three are built on
    first use from arrays: the queried ids ascending, the drawn ids in draw
    order, and the out and in hits aligned with the queried ids.
    """

    r: float
    epsilon: float
    t: int
    _centers: np.ndarray = field(repr=False)
    _drawn: np.ndarray = field(repr=False)
    _out_hits: np.ndarray = field(repr=False)
    _in_hits: np.ndarray = field(repr=False)

    @cached_property
    def sample(self) -> tuple:
        return tuple(self._drawn.tolist())

    @cached_property
    def out_counts(self) -> dict:
        return dict(zip(self._centers.tolist(), self._out_hits.tolist()))

    @cached_property
    def in_counts(self) -> dict:
        return dict(zip(self._centers.tolist(), self._in_hits.tolist()))

    def f_out(self, u) -> float:
        return self.out_counts[u] / self.t

    def f_in(self, u) -> float:
        return self.in_counts[u] / self.t

    def _key(self):
        return self.r, self.epsilon, self.t, self.sample, self.out_counts, self.in_counts

    def __eq__(self, other):
        if not isinstance(other, FractionEstimates):
            return NotImplemented
        return self._key() == other._key()


class _RowStore:
    """Dijkstra rows over one fixed working set, one per (direction, source),
    each searched at most once however many estimates ask for it.

    Per direction, rows stacks the rows searched so far in one array, in
    search order; pos holds the working-set position of each row and slot
    the row of each position (-1 while not held).  cut caches the 0/1
    matrix [rows <= r] for the last radius asked, and is rebuilt when rows
    are added or r changes.  Rows are stacked as searched rather than laid
    out over the whole working set, so a store holds the rows its
    estimates asked for, not n^2 distances.

    balls is the memo round_trip_ball keeps for carves from this working
    set: per center, its two searches and the balls found so far."""

    def __init__(self, g: Graph, verts):
        self.g = g
        self.verts = verts
        self.ids = np.asarray(verts, dtype=np.int64)
        n = len(verts)
        self.rows = {d: np.zeros((0, n)) for d in (OUT, IN)}
        self.pos = {d: np.zeros(0, dtype=np.int64) for d in (OUT, IN)}
        self.slot = {d: np.full(n, -1) for d in (OUT, IN)}
        self.cut = {OUT: None, IN: None}
        self.balls = {}

    def _threshold(self, positions, direction, r):
        """[d <= r] over every held row, after one batched search for the
        rows at `positions` (ascending working-set positions) not yet held."""
        slot = self.slot[direction]
        missing = positions[slot[positions] < 0]
        if len(missing):
            block = distance_matrix(self.g, self.verts, sources=self.ids[missing].tolist(),
                                    direction=direction)
            held = len(self.pos[direction])
            slot[missing] = np.arange(held, held + len(missing))
            self.pos[direction] = np.concatenate((self.pos[direction], missing))
            self.rows[direction] = np.concatenate((self.rows[direction], block))
            self.cut[direction] = None
        cut = self.cut[direction]
        if cut is None or cut[0] != r:
            cut = self.cut[direction] = (r, (self.rows[direction] <= r).astype(float))
        return cut[1]

    def row_hits(self, positions, direction, r, weights):
        """For each of `positions`, the sum of weights[q] over the entries
        q of its row that are <= r."""
        near = self._threshold(positions, direction, r)
        return (near @ weights)[self.slot[direction][positions]]

    def column_hits(self, positions, direction, r, weights):
        """For every working-set position q, the sum of weights[p] over the
        rows p whose entry at q is <= r.  `positions` must include every p
        with weights[p] != 0; the other rows held add 0."""
        near = self._threshold(positions, direction, r)
        return weights[self.pos[direction]] @ near


def _randrange_draws(rng: random.Random, n: int, t: int) -> np.ndarray:
    """The t >= 1 values [rng.randrange(n) for _ in range(t)] returns, for
    1 <= n < 2**32, leaving rng in the same state.

    CPython's randrange(n) takes one 32-bit Mersenne Twister word, keeps
    its top n.bit_length() bits and takes another word while they reach n.
    getrandbits(32 * j) returns the next j words, the first one least
    significant, so each round takes one word per draw still needed,
    keeps the accepted ones in order, and leaves only the shortfall for
    the next round: no word is taken that randrange would not take.
    """
    shift = 32 - n.bit_length()
    kept = []
    need = t
    while need:
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"),
                              dtype="<u4") >> shift
        ok = words[words < n]
        kept.append(ok)
        need -= len(ok)
    return np.concatenate(kept)


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
    if _rows is None:
        _rows = _RowStore(g, verts)
    elif _rows.g is not g or _rows.verts != verts:
        raise ValueError("row store belongs to another working set")
    ids = _rows.ids
    if restrict is not None and centers is restrict:
        # the cover's case: every vertex of the working set is queried
        upos = np.arange(n)
    else:
        vset = set(verts)
        U = sorted(set(centers))
        for u in U:
            if u not in vset:
                raise ValueError(f"queried vertex {u} not inside restrict")
        upos = np.searchsorted(ids, np.asarray(U, dtype=np.int64))
    t = sample_count(n, epsilon)
    drawn = _randrange_draws(rng, n, t)
    mult = np.bincount(drawn, minlength=n).astype(float)
    cols = np.flatnonzero(mult)  # positions of the distinct samples, ascending

    # hits weight 0/1 thresholds by sample multiplicity; as sums of at most
    # t integers they are exact in float64
    if len(upos) <= len(cols):
        # search from the query side: row u holds d(u, .) outward, d(., u) inward
        out_hits = _rows.row_hits(upos, OUT, r, mult)
        in_hits = _rows.row_hits(upos, IN, r, mult)
    else:
        # search from the sample side: row v holds d(v, .) outward, d(., v)
        # inward; d(v, u) <= r counts toward f_in(u), d(u, v) <= r toward f_out(u)
        in_hits = _rows.column_hits(cols, OUT, r, mult)[upos]
        out_hits = _rows.column_hits(cols, IN, r, mult)[upos]

    return FractionEstimates(float(r), float(epsilon), t, ids[upos], ids[drawn],
                             out_hits.astype(np.int64), in_hits.astype(np.int64))
