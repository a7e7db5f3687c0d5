"""Randomized digraph partitioning with exponential-clock radii.

Each center draws a radius from Exp(ln(s)/r); a vertex joins the center
whose clock reaches it first, measured by r_u - d(u, v) (or the reverse
distance for inward clustering).  Vertices no clock reaches form a
residual part.  The distances are the centers' rows in the working set's
row store, which the cover's ball-fraction estimate has already filled.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .estimate import _RowStore
from .graph import IN, OUT, Graph, vertex_ids


@dataclass(frozen=True)
class Cluster:
    """One part of a Partition.

    radius is the sampled clock value r_u.  reach is the largest
    center-to-member distance (member-to-center for inward runs), read from
    the center's distance row, so it carries that search's float rounding.
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
            rng: random.Random | None = None, *, _rows: _RowStore | None = None) -> Partition:
    """Partition G(restrict) around `centers` with clock rate ln(s)/r.

    Each center u draws its radius r_u from rng.expovariate, in ascending
    center order.  A vertex v is claimed by the center u maximizing
    r_u - d(u, v) (direction IN uses d(v, u)) when that maximum is
    positive; ties go to the smallest center id.  Unclaimed vertices form
    the residual, which never exceeds |restrict| - |centers|.

    d comes from the centers' rows of a row store over G(restrict), and
    reach from the same rows.  _rows is internal: such a store, whose held
    rows are read, not searched again, in place of a fresh one.
    """
    if not isinstance(s, int) or s < 2:
        raise ValueError("s must be an integer >= 2")
    if not 0 < r < math.inf:
        raise ValueError("r must be positive and finite")
    if rng is None:
        raise ValueError("rng is required")
    if direction not in (OUT, IN):
        raise ValueError(f"direction must be OUT or IN, got {direction!r}")
    verts = vertex_ids(g, restrict)
    if _rows is None:
        _rows = _RowStore(g, verts)
    elif _rows.g is not g or _rows.verts != verts:
        raise ValueError("row store belongs to another working set")
    ids = _rows.ids
    U = sorted(set(centers))
    at = np.searchsorted(ids, U)
    for u, i in zip(U, at.tolist()):
        if i == len(verts) or verts[i] != u:
            raise ValueError(f"center {u} not inside restrict")
    if not U:
        return Partition((), frozenset(verts))

    rate = math.log(s) / r
    rad = [rng.expovariate(rate) for _ in U]

    # score[i, q] = r_u - d for center U[i] and vertex verts[q], written over
    # the copy of the rows: a second k x n array costs more in fresh pages
    # than the scoring; argmax takes the first equal maximum, the smallest center
    score = _rows.rows_at(at, direction)
    np.subtract(np.asarray(rad)[:, None], score, out=score)
    best = score.argmax(axis=0)
    claimed = score[best, np.arange(len(ids))] > 0.0
    q = np.flatnonzero(claimed)
    q = q[np.argsort(best[q], kind="stable")]  # by center, then by vertex
    won, starts, slot = np.unique(best[q], return_index=True, return_inverse=True)
    # score overwrote its copy of the rows, so reach reads the winners' rows
    reach = np.maximum.reduceat(_rows.rows_at(at[won], direction)[slot, q], starts).tolist()
    members = ids[q].tolist()
    ends = [*starts[1:].tolist(), len(members)]
    clusters = tuple(Cluster(U[i], rad[i], frozenset(members[a:b]), d) for i, a, b, d
                     in zip(won.tolist(), starts.tolist(), ends, reach))
    return Partition(clusters, frozenset(ids[~claimed].tolist()))
