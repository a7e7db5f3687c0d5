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


class Partition:
    """Clusters ordered by center id, plus the residual of unclaimed vertices.

    A partition is held as one label per working-set vertex: _ids holds the
    vertex ids ascending and _labels, aligned with them, the index of the
    cluster that claims each, or the cluster count for the residual, so
    labels follow parts() order.  The Cluster objects and the residual set
    are built from the labels when first read.
    """

    __slots__ = ("_ids", "_labels", "_count", "_build", "_clusters", "_residual")

    def __init__(self, clusters, residual):
        clusters = tuple(clusters)
        parts = [*(c.members for c in clusters), residual]
        ids = np.fromiter((v for p in parts for v in p), dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        labels = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
        self._ids, self._labels, self._count = ids[order], labels[order], len(parts) - 1
        self._clusters, self._residual, self._build = clusters, frozenset(residual), None

    @classmethod
    def _from_labels(cls, ids, labels, count, build):
        """The partition of ids by labels, count of them clusters; build()
        makes its Cluster tuple when it is first read."""
        p = cls.__new__(cls)
        p._ids, p._labels, p._count, p._build = ids, labels, count, build
        p._clusters = p._residual = None
        return p

    @property
    def clusters(self):
        if self._clusters is None:
            self._clusters, self._build = self._build(), None
        return self._clusters

    @property
    def residual(self):
        if self._residual is None:
            self._residual = frozenset(self._ids[self._labels == self._count].tolist())
        return self._residual

    def parts(self):
        out = [c.members for c in self.clusters]
        if self.residual:
            out.append(self.residual)
        return out

    def same_part(self, u, v) -> bool:
        ids, n = self._ids, len(self._ids)
        i, j = np.searchsorted(ids, (u, v)).tolist()
        return bool(i < n and j < n and ids[i] == u and ids[j] == v and self._labels[i] == self._labels[j])

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (self.clusters, self.residual) == (other.clusters, other.residual)

    def __hash__(self):
        return hash((self.clusters, self.residual))

    def __repr__(self):
        return f"Partition(clusters={self.clusters!r}, residual={self.residual!r})"


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
    inside = at < len(ids)
    inside[inside] = ids[at[inside]] == np.asarray(U)[inside]
    if not inside.all():
        raise ValueError(f"center {U[int(inside.argmin())]} not inside restrict")
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
    wins = np.bincount(best[claimed], minlength=len(U)) > 0
    rank = np.cumsum(wins) - 1  # a center's index among the centers that claim
    count = int(rank[-1]) + 1
    labels = np.where(claimed, rank[best], count)

    def build():
        q = np.flatnonzero(claimed)
        q = q[np.argsort(best[q], kind="stable")]  # by center, then by vertex
        won, starts, slot = np.unique(best[q], return_index=True, return_inverse=True)
        # score overwrote its copy of the rows, so reach reads the winners' rows
        reach = np.maximum.reduceat(_rows.rows_at(at[won], direction)[slot, q], starts).tolist()
        members = ids[q].tolist()
        ends = [*starts[1:].tolist(), len(members)]
        return tuple(Cluster(U[i], rad[i], frozenset(members[a:b]), d) for i, a, b, d
                     in zip(won.tolist(), starts.tolist(), ends, reach))

    return Partition._from_labels(ids, labels, count, build)
