"""Source-wise round-trip covers by recursive carve-or-partition.

One recursion works on a shrinking vertex set: when some vertex's
estimated out-ball and in-ball of radius c*r each hold 3/4 of the set, a
single ball around the smallest such vertex is carved off; otherwise an
exponential-clock partition splits the set and the recursion descends
into each part.
Repeating the recursion with independent randomness and unioning the
balls amplifies the per-run success probability into a cover.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from .estimate import _RowStore, estimate_ball_fractions, sample_count
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

    failure_parts records whole working sets returned by the one bail-out
    exit, with no radius guarantee: a partition that leaves one part above
    7/8 of its working set.  A failure part covers nothing.  Within a
    single run, ball member sets and failure parts are pairwise disjoint;
    across trials they may overlap.
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


def _carve_radius(c: int, r: float, rng: random.Random) -> float:
    """The radius of a carve after an estimate: uniform in [2cr, 2(c+1)r]."""
    return rng.uniform(2 * c * r, 2 * (c + 1) * r)


def recursive_cover(g: Graph, r: float, sources, params: CoverParams | None = None,
                    rng: random.Random | None = None, *, _root_rows: _RowStore | None = None) -> Cover:
    """One randomized carve-or-partition run over all of g.

    Emits disjoint balls of round-trip radius at most 2(c+1)*r such that,
    with the guaranteed probability, every source stays together with its
    near vertices in some ball.  sources must be vertices of g.

    The estimate, carves and partition of a working set read one distance
    row store over it; a working set with one source only carves, from its
    center's two rows.  _root_rows is internal: the store for the whole
    vertex set, so that runs over one graph share it, and with it the
    carve memo it holds for carves from the whole set and from one-source
    working sets, the carves that repeat across runs.
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
    if _root_rows is None:
        _root_rows = _RowStore(g, list(range(g.n)))
    memo = _root_rows.balls  # carves by (working set, center), across runs

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
        rows = _root_rows if verts is base else None
        if len(S) == 1:
            (u,) = S
            if rows is None and (verts, u) not in memo:  # a memo hit reads no row
                rows = _RowStore(g, sorted(verts))
            balls.append(round_trip_ball(g, verts, u, r, _rows=rows, _memo=memo))
            continue
        if rows is None:
            rows = _RowStore(g, sorted(verts))
        est = estimate_ball_fractions(g, verts, c * r, params.epsilon, rng, _rows=rows)
        # f >= 3/4 exactly when 4 * hits >= 3 * t, hits and t being integers;
        # est.centers is the working set, ascending
        ids, t = est.centers, est.t
        out_ok = 4 * est.out_hits >= 3 * t
        in_ok = 4 * est.in_hits >= 3 * t
        core = out_ok & in_ok
        if core.any():
            u = int(ids[np.argmax(core)])  # the smallest core vertex
            ru = _carve_radius(c, r, rng)
            # below the root, only one-source carves are memoized
            b = round_trip_ball(g, verts, u, ru, _rows=rows, _memo=memo if verts is base else None)
            balls.append(b)
            stack.append((verts - b.members, S - b.members, depth + 1))
            continue
        nv = len(verts)
        if np.count_nonzero(out_ok) <= nv / 2:
            part = cluster(g, verts, ids[~out_ok].tolist(), r, len(S), OUT, rng, _rows=rows)
        else:
            part = cluster(g, verts, ids[~in_ok].tolist(), r, len(S), IN, rng, _rows=rows)
        # the parts are read off the labels, which follow parts() order; a
        # part without a source would pop with nothing to do, at the depth
        # of the parts with one, so it is not pushed
        if np.bincount(part._labels).max() > 7 * nv / 8:
            failures.append(frozenset(verts))
            continue
        held = part._labels[np.searchsorted(part._ids, sorted(S))]
        for label in np.unique(held)[::-1].tolist():
            p = frozenset(part._ids[part._labels == label].tolist())
            stack.append((p, S & p, depth + 1))

    total = sum(len(b.members) for b in balls) + sum(len(f) for f in failures)
    seen = set()
    for b in balls:
        seen |= b.members
    for f in failures:
        seen |= f
    assert len(seen) == total, "carved parts must be disjoint within one run"

    return Cover(tuple(balls), tuple(failures), float(r), params,
                 max_depth=deepest)


def _decides_all(g: Graph, r: float, S, params: CoverParams, first: Cover, root_rows: _RowStore) -> bool:
    """Whether the first trial of a cover fixes every later one.  With one
    source it always does: every trial carves from that source at radius
    r, draws nothing and reads the same memoized ball.  With more, the root
    estimate must be exact (t >= n draws nothing, so every trial carves
    from the same smallest core vertex u), the trial must be that one
    carve holding all n vertices, and u's round trip to every vertex at
    most 2cr, the least radius a carve draws.  Every trial then carves the
    same ball and ends at depth 2; only its first draw, the radius,
    differs.  u's rows come from the root store, which the exact estimate
    filled, so this searches nothing."""
    n = g.n
    if len(S) == 1:
        return True
    if sample_count(n, params.epsilon) < n or first.failure_parts:
        return False
    if len(first.balls) != 1 or len(first.balls[0].members) != n:
        return False
    at = np.array([first.balls[0].center])  # root store positions are vertex ids
    rt = root_rows.rows_at(at, OUT)[0] + root_rows.rows_at(at, IN)[0]
    return bool(rt.max() <= 2 * params.c * r)


def swrt_cover(g: Graph, k: int, R: float, sources, params: CoverParams | None = None,
               rng: random.Random | None = None, *, _root_rows: _RowStore | None = None) -> Cover:
    """Source-wise round-trip cover at target distance R.

    Sets the carve radius r = 6*R*k*ln(n) and unions the balls of
    trial_mult * c * ceil(s^(1/k)) * ceil(ln n) independent recursion
    runs, each seeded from its own child stream so the trial count can
    change without disturbing earlier trials.

    Every run starts from the full vertex set, so the runs share one
    root store over it: each root row is searched once per cover, and an
    exact root estimate (t >= n, which draws nothing) is made once per
    cover.  A sampled estimate asks only for the rows of its distinct
    samples; later working sets are subgraphs with their own distances,
    and stores.  The root store also holds the carve memo: a carve from
    the whole set, or from a one-source working set, with a center that an
    earlier run carved from reads no row, and for an equal member count
    reuses the ball itself.

    When the first run shows that the root decides every run (see
    _decides_all), the later runs are not made: each is that run's one
    ball, with radius r for one source and otherwise with the radius its
    own stream draws first, so the Cover is the one the runs would give,
    field by field.

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
        one = recursive_cover(g, r, S, params, random.Random(f"{base}:{i}"), _root_rows=root_rows)
        balls.extend(one.balls)
        failures.extend(one.failure_parts)
        if one.max_depth > deepest:
            deepest = one.max_depth
        if i == 0 and _decides_all(g, r, S, params, one, root_rows):
            (ball,) = one.balls
            for j in range(1, trials):
                radius = r if s == 1 else _carve_radius(params.c, r, random.Random(f"{base}:{j}"))
                balls.append(replace(ball, radius=radius))
            break
    return Cover(tuple(balls), tuple(failures), r, params, k=k, R=float(R),
                 trials=trials, max_depth=deepest)
