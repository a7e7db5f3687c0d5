"""Source-wise round-trip covers by recursive carve-or-partition.

One recursion works on a shrinking vertex set: when a quarter of it sits
in everyone's estimated in/out neighborhood, a single ball around the
smallest such vertex is carved off; otherwise an exponential-clock
partition splits the set and the recursion descends into each part.
Repeating the recursion with independent randomness and unioning the
balls amplifies the per-run success probability into a cover.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .estimate import _RowStore, estimate_ball_fractions
from .graph import IN, OUT, Graph, round_trip_ball
from .partition import cluster


@dataclass(frozen=True)
class CoverParams:
    """Tuning constants: ball/estimation constant c >= 1, estimation
    tolerance, and an extra multiplier on the amplification trial count."""

    c: int = 4
    epsilon: float = 0.125
    trial_mult: int = 1

    def __post_init__(self):
        if not isinstance(self.c, int) or self.c < 1:
            raise ValueError("c must be an integer >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not isinstance(self.trial_mult, int) or self.trial_mult < 1:
            raise ValueError("trial_mult must be an integer >= 1")


@dataclass(frozen=True)
class Cover:
    """Balls collected over one or more recursion runs.

    failure_parts records whole working sets returned by a bail-out exit,
    with no radius guarantee.  The exit fires when the estimated core is
    non-empty but smaller than a quarter of the working set, or when a
    partition leaves one part above 7/8 of it.  Within a single run, ball
    member sets and failure parts are pairwise disjoint; across trials
    they may overlap.
    """

    balls: tuple
    failure_parts: tuple
    r: float
    params: CoverParams
    k: int | None = None
    R: float | None = None
    trials: int = 1
    max_depth: int = 0

    def vertex_ball_counts(self) -> dict:
        counts = {}
        for b in self.balls:
            for v in b.members:
                counts[v] = counts.get(v, 0) + 1
        return counts


def _ceil_root(s: int, k: int) -> int:
    """Smallest integer a with a**k >= s, computed without float error."""
    a = 1
    while a ** k < s:
        a += 1
    return a


def recursive_cover(g: Graph, r: float, sources, params: CoverParams | None = None,
                    rng: random.Random | None = None, *, _root_rows: _RowStore | None = None) -> Cover:
    """One randomized carve-or-partition run over all of g.

    Emits disjoint balls of round-trip radius at most 2(c+1)*r such that,
    with the guaranteed probability, every source stays together with its
    near vertices in some ball.  sources must be vertices of g.

    _root_rows is internal: a distance row store over all of g, handed to
    the estimate and the carves of the whole vertex set so that runs over
    one graph share their searches and balls.
    """
    if params is None:
        params = CoverParams()
    if rng is None:
        raise ValueError("rng is required")
    if not 0 < 2 * (params.c + 1) * r < math.inf:
        raise ValueError("r must be positive, and 2(c+1)*r finite")
    base = frozenset(range(g.n))
    S0 = frozenset(sources)
    if not S0 <= base:
        raise ValueError("sources must be vertices of g")
    c = params.c

    balls = []
    failures = []
    deepest = 0
    # Depth-first over working sets; children are pushed in reverse so
    # they pop in order, which keeps the rng draws in recursion order.
    stack = [(base, S0, 1)]
    while stack:
        verts, S, depth = stack.pop()
        deepest = max(deepest, depth)
        if not verts or not S:
            continue
        root = _root_rows if verts is base else None
        memo = root.balls if root is not None else None
        if len(S) == 1:
            (u,) = S
            balls.append(round_trip_ball(g, verts, u, r, _memo=memo))
            continue
        est = estimate_ball_fractions(g, verts, c * r, params.epsilon, rng, _rows=root)
        # f >= 3/4 exactly when 4 * hits >= 3 * t, hits and t being integers;
        # est.centers is the working set, ascending
        ids, t = est.centers, est.t
        out_ok = 4 * est.out_hits >= 3 * t
        in_ok = 4 * est.in_hits >= 3 * t
        core = out_ok & in_ok
        n_core = int(np.count_nonzero(core))
        nv = len(verts)
        if n_core:
            if n_core < nv / 4:
                # estimates disagree with themselves; bail out with one
                # unguaranteed part rather than mis-carve
                failures.append(frozenset(verts))
                continue
            u = int(ids[np.argmax(core)])  # the smallest core vertex
            ru = rng.uniform(2 * c * r, 2 * (c + 1) * r)
            b = round_trip_ball(g, verts, u, ru, _memo=memo)
            balls.append(b)
            stack.append((verts - b.members, S - b.members, depth + 1))
            continue
        if np.count_nonzero(out_ok) <= nv / 2:
            part = cluster(g, verts, ids[~out_ok].tolist(), r, len(S), OUT, rng)
        else:
            part = cluster(g, verts, ids[~in_ok].tolist(), r, len(S), IN, rng)
        pieces = part.parts()
        if max(len(p) for p in pieces) > 7 * nv / 8:
            failures.append(frozenset(verts))
            continue
        stack.extend((frozenset(p), S & p, depth + 1) for p in reversed(pieces))

    total = sum(len(b.members) for b in balls) + sum(len(f) for f in failures)
    seen = set()
    for b in balls:
        seen |= b.members
    for f in failures:
        seen |= f
    assert len(seen) == total, "carved parts must be disjoint within one run"

    return Cover(tuple(balls), tuple(failures), float(r), params,
                 max_depth=deepest)


def swrt_cover(g: Graph, k: int, R: float, sources, params: CoverParams | None = None,
               rng: random.Random | None = None, *, _root_rows: _RowStore | None = None) -> Cover:
    """Source-wise round-trip cover at target distance R.

    Sets the carve radius r = 6*R*k*ln(n) and unions the balls of
    trial_mult * c * ceil(s^(1/k)) * ceil(ln n) independent recursion
    runs, each seeded from its own child stream so the trial count can
    change without disturbing earlier trials.

    Every run starts from the full vertex set, so the runs share one
    root store over it: each (direction, source) row of the first
    estimate is searched once per cover instead of once per trial, and
    each carve from the full set reuses the two searches from its center
    and, for an equal member count, the ball itself.  Each estimate still
    asks only for the rows of its distinct samples, at most t per
    direction, as the paper's per-estimate search bound assumes; later
    working sets are subgraphs with their own distances and are searched
    afresh.  The estimates draw their samples in bulk, bit-identical to
    one randrange call per sample.

    _root_rows is internal: a root store over all of g that an earlier
    cover of the same graph filled, in place of a fresh one.
    """
    if params is None:
        params = CoverParams()
    if rng is None:
        raise ValueError("rng is required")
    if not isinstance(k, int) or k <= 1:
        raise ValueError("k must be an integer > 1")
    if not 0 < R < math.inf:
        raise ValueError("R must be positive and finite")
    S = frozenset(sources)
    if not S:
        raise ValueError("sources must be non-empty")
    if not S <= frozenset(range(g.n)):
        raise ValueError("sources must be vertices of g")

    n = g.n
    r = 6.0 * R * k * math.log(n) if n >= 2 else float(R)
    if not 2 * (params.c + 1) * r < math.inf:
        raise ValueError("R must be small enough that the ball radius 2(c+1)*r, "
                         "with r = 6*R*k*ln(n), stays finite")
    s = len(S)
    trials = params.trial_mult * params.c * _ceil_root(s, k) * max(1, math.ceil(math.log(n)))

    base = rng.getrandbits(64)
    root_rows = _root_rows if _root_rows is not None else _RowStore(g, list(range(g.n)))
    balls = []
    failures = []
    deepest = 0
    for i in range(trials):
        sub = random.Random(f"{base}:{i}")
        one = recursive_cover(g, r, S, params, sub, _root_rows=root_rows)
        balls.extend(one.balls)
        failures.extend(one.failure_parts)
        if one.max_depth > deepest:
            deepest = one.max_depth
    return Cover(tuple(balls), tuple(failures), r, params, k=k, R=float(R),
                 trials=trials, max_depth=deepest)
