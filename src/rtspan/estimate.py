"""Sampled estimation of in-/out-ball size fractions.

For each queried vertex u the estimator reports which fraction of the
working vertex set lies within one-way distance r of u, outward and
inward, from t = ceil(5 * eps^-2 * ln n) uniform samples drawn with
replacement.  The samples are the draws t calls of rng.randrange(n)
would return, leaving rng in the same state, but their random words are
taken in bulk and filtered with numpy instead of one call per draw.
Distances between the query side and the sample side come from one
batched Dijkstra per direction over whichever side is smaller, and the
sample hits of every queried vertex are counted with one integer matrix
product.

The Dijkstra rows are held in a row store keyed by (direction, source),
and each estimate searches only the rows its store lacks.  A store over
one working set can be shared by several estimates over that same set:
the cover shares one across all trials that start from the full vertex
set, and the spanner hands it on to the next window when that window is
the same graph, so each such row is searched once per run of equal
windows rather than once per trial.  An estimate still asks for at most
min(|centers|, t) rows, so its own search cost keeps the O(eps^-2 log n)
bound; sharing only removes repeats.  The store also keeps the
round-trip balls carved from that working set (see round_trip_ball).
"""

from __future__ import annotations

import math
import random
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
    each searched at most once however many estimates ask for it.

    balls is the memo round_trip_ball keeps for carves from this working
    set: per center, its two searches and the balls found so far."""

    def __init__(self, g: Graph, verts):
        self.g = g
        self.verts = verts
        self.rows = {OUT: {}, IN: {}}
        self.balls = {}

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
    drawn = _randrange_draws(rng, n, t)
    varr = np.asarray(verts)
    mult = np.bincount(drawn, minlength=n)
    cols = np.flatnonzero(mult)  # positions of the distinct samples, ascending
    w = mult[cols]

    if len(U) <= len(cols):
        # search from the query side: row u holds d(u, .) outward, d(., u) inward
        out_hits = (_rows.matrix(U, OUT)[:, cols] <= r) @ w
        in_hits = (_rows.matrix(U, IN)[:, cols] <= r) @ w
    else:
        # search from the sample side: row v holds d(v, .) outward, d(., v)
        # inward; d(v, u) <= r counts toward f_in(u), d(u, v) <= r toward f_out(u)
        distinct = varr[cols].tolist()
        ucols = np.searchsorted(varr, U)
        in_hits = w @ (_rows.matrix(distinct, OUT)[:, ucols] <= r)
        out_hits = w @ (_rows.matrix(distinct, IN)[:, ucols] <= r)

    return FractionEstimates(float(r), float(epsilon), t, tuple(varr[drawn].tolist()),
                             dict(zip(U, out_hits.tolist())),
                             dict(zip(U, in_hits.tolist())))
