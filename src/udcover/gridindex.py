"""Uniform-grid point indexes for "is there a point within radius r" queries.

``RadiusGrid`` buckets points by a square grid whose cell side equals the
query radius, so a 3x3 block of cells around the query is guaranteed to
contain every stored point within that radius; it answers one query at a
time, in Python. ``open_rows`` asks the same question of many rows at
once, in numpy, over a cell table it builds for the call, or, where that
table would overflow, with a cKDTree over the centers; ``settling_centers``
answers it with the index of a center that settles each row, and
``witness_open_rows`` asks it of one named center per row, by the same
test. ``kd_tree`` builds every cKDTree the package queries.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .geom import Point

# open_rows and witness_open_rows settle a row only where dx*dx + dy*dy
# is below limit**2 by more than this share, so an exact test of the
# distance, in any rounding, finds a center within the limit
_BAND = 1e-12
# a few ulps above 1: cells this much wider than the limit keep every
# center within the limit of a row in the row's 3x3 block, whatever the
# rounding of the cell index
_CELL_MARGIN = 1.0 + 4 * np.finfo(np.float64).eps
# open_rows leaves the cell table for a tree where the rows' candidates in
# their own columns would exceed this many per row and center, and it
# tests at most this many candidates a row in each step
_MAX_PAIRS = 4
_MAX_SLOTS = 16
# The tree settles a row whose nearest center is nearer than this share of
# the limit: a center within the limit in any rounding of dx*dx + dy*dy,
# and, at limit 1, one whose floor cells are at most 1 apart from the
# row's, so the RadiusGrid probe would find it too.
_INSIDE = 1.0 - 1e-9


class RadiusGrid:
    """Point index over a uniform grid with cell side ``cell_side``.

    Multiset semantics: the same coordinates may be stored more than
    once. Nearest-neighbor ties are broken by insertion order.
    Single-writer: queries and mutations must not interleave across
    threads.
    """

    def __init__(self, cell_side: float = 1.0):
        if not cell_side > 0.0:
            raise ValueError(f"cell side must be positive, got {cell_side}")
        self.cell_side = cell_side
        self._inv = 1.0 / cell_side
        # {column: {row: bucket}}: a probe hashes three columns and up to
        # nine rows, all ints, and builds no key tuple
        self._cells: dict[int, dict[int, list[tuple[float, float, int]]]] = {}
        self._seq = 0

    def insert(self, p: Point) -> None:
        x, y = p
        column = self._cells.setdefault(math.floor(x * self._inv), {})
        column.setdefault(math.floor(y * self._inv), []).append((x, y, self._seq))
        self._seq += 1

    def remove(self, p: Point) -> bool:
        """Remove one stored copy whose coordinates equal p exactly."""
        x, y = p
        i = math.floor(x * self._inv)
        j = math.floor(y * self._inv)
        column = self._cells.get(i)
        bucket = column.get(j) if column else None
        if not bucket:
            return False
        for idx, (bx, by, _) in enumerate(bucket):
            if bx == x and by == y:
                del bucket[idx]
                if not bucket:
                    del column[j]
                    if not column:
                        del self._cells[i]
                return True
        return False

    def nearest_within(self, q: Point, r: float) -> tuple[Point, float] | None:
        """Nearest stored point at distance <= r from q (boundary
        inclusive), and its squared distance, or None. Requires
        r <= cell_side so the 3x3 probe window is sufficient."""
        hit = self._nearest(q, r)
        return hit and hit[:2]

    def _nearest(self, q: Point, r: float) -> tuple[Point, float, int] | None:
        """``nearest_within``'s hit and its insertion number: the count of
        points inserted before it, removed ones too."""
        if not r <= self.cell_side:
            raise ValueError(f"query radius {r} exceeds grid cell side {self.cell_side}")
        qx, qy = q
        ci = math.floor(qx * self._inv)
        cj = math.floor(qy * self._inv)
        r_sq = r * r
        best_d = math.inf
        best_seq = -1
        best: Point | None = None
        cells = self._cells
        for i in (ci - 1, ci, ci + 1):
            column = cells.get(i)
            if column is None:
                continue
            for j in (cj - 1, cj, cj + 1):
                bucket = column.get(j)
                if bucket is None:
                    continue
                for x, y, seq in bucket:
                    dx = x - qx
                    dy = y - qy
                    d = dx * dx + dy * dy
                    if d <= r_sq and (d < best_d or (d == best_d and seq < best_seq)):
                        best_d = d
                        best_seq = seq
                        best = (x, y)
        if best is None:
            return None
        return best, best_d, best_seq


def kd_tree(xy: np.ndarray) -> cKDTree:
    """The cKDTree over the rows of xy that ``open_rows`` and
    ``verify_cover`` query for nearest centers and the online solvers for
    pairs: a sliding-midpoint tree without node shrinking builds faster
    and answers the same distances and pairs."""
    return cKDTree(xy, balanced_tree=False, compact_nodes=False)


def open_rows(points: np.ndarray, centers: np.ndarray, limit: float,
              tree=None) -> np.ndarray:
    """The rows of ``points`` that no center of ``centers`` (at least one)
    settles as covered, in index order (``_open_rows``)."""
    return _open_rows(points, centers, limit, tree, False)


def settling_centers(points: np.ndarray, centers: np.ndarray,
                     limit: float) -> tuple[np.ndarray, np.ndarray]:
    """``open_rows``' rows, and per row of ``points`` the index in
    ``centers`` of a center that settles it, or -1 for the open rows."""
    return _open_rows(points, centers, limit, None, True)


def _open_rows(points, centers, limit, tree, named):
    """The rows of ``points`` that no center of ``centers`` settles, in
    index order, and, where ``named``, per row the index of a center that
    settles it, or -1.

    A cell grid settles a row once some center has ``dx*dx + dy*dy``
    below ``limit**2`` by more than ``_BAND``: so a tree, or a RadiusGrid
    probe at radius ``limit`` (whose floor cells two apart hold no center
    that near), finds a center within the limit whatever the rounding of
    its own distance. With cells of side ``limit``, every center within
    the limit of a row lies in the 3x3 cells around the row's cell: its
    own column is tried first, then, for the rows still open, the columns
    to either side. Where the centers' bounding box would need more than
    about 4(n + m) cells, the cells widen. A center the grid misses only
    leaves its row open. For a non-finite extent or ``limit**2``, or where
    the rows would have more than ``_MAX_PAIRS * (n + m)`` candidates in
    their own columns (counted before the centers are sorted), as with one
    far outlier center, a cKDTree over the centers settles the rows with a
    center nearer than ``limit * _INSIDE`` instead. ``tree``, where given,
    returns that tree when called, so that a caller that queries the
    centers too can build it once."""
    lo = _settle_sq(limit)
    ctx, cty = centers[:, 0], centers[:, 1]
    x0, y0 = float(ctx.min()), float(cty.min())
    w, h = float(ctx.max()) - x0, float(cty.max()) - y0
    if not (math.isfinite(lo) and math.isfinite(w) and math.isfinite(h)):
        return _tree_open_rows(points, centers, limit, tree, named)
    n, m = points.shape[0], centers.shape[0]
    room = 4 * (n + m)
    side = max(limit * _CELL_MARGIN, 12.0 * w / room, 12.0 * h / room,
               math.sqrt(2.0 * w / room) * math.sqrt(h))
    # one spare column and row on each side, so a row's 3x3 block stays
    # in the table; a point outside the box is clipped into its border
    nx, ny = int(w / side) + 3, int(h / side) + 3
    ckey = (((ctx - x0) / side).astype(np.int64) * ny
            + ((cty - y0) / side).astype(np.int64) + (ny + 1))
    start = np.zeros(nx * ny + 1, np.int64)
    np.cumsum(np.bincount(ckey, minlength=nx * ny), out=start[1:])
    px, py = points[:, 0], points[:, 1]
    qx = (px - x0) / side
    qy = (py - y0) / side
    qx.clip(0.0, nx - 3, out=qx)
    qy.clip(0.0, ny - 3, out=qy)
    key = qx.astype(np.int64) * ny + qy.astype(np.int64) + (ny + 1)
    # own column: the cells of rows r - 1 .. r + 1 are one slice of the table
    a = start[key - 1]
    cnt = start[key + 2] - a
    if int(cnt.sum()) > _MAX_PAIRS * (n + m):
        return _tree_open_rows(points, centers, limit, tree, named)
    order = np.argsort(ckey)
    cx, cy = ctx[order], cty[order]
    name = order if named else None
    settled = _any_within(px, py, a, cnt, cx, cy, lo, name)
    open_ = np.flatnonzero(settled < 0 if named else ~settled)
    if not len(open_):
        return (open_, settled) if named else open_
    # the columns to the left and right, for the rows still open
    key = key[open_]
    a = np.concatenate((start[key - ny - 1], start[key + ny - 1]))
    cnt = np.concatenate((start[key - ny + 2], start[key + ny + 2])) - a
    px, py = px[open_], py[open_]
    hit = _any_within(np.concatenate((px, px)), np.concatenate((py, py)), a, cnt, cx, cy, lo, name)
    left, right = hit[:len(open_)], hit[len(open_):]
    if named:
        settled[open_] = who = np.maximum(left, right)
        return open_[who < 0], settled
    return open_[~(left | right)]


def witness_open_rows(points: np.ndarray, centers: np.ndarray, witness: np.ndarray,
                      limit: float) -> np.ndarray:
    """The rows of ``points`` that their witness leaves open, in index
    order. ``witness`` is an integer array with one index into ``centers``
    per row, and it settles a row by ``open_rows``' own test: that
    center's ``dx*dx + dy*dy`` below ``limit**2`` by more than ``_BAND``.
    An index outside ``[0, m)`` settles nothing, and nor does any witness
    where ``limit**2`` is not finite."""
    lo = _settle_sq(limit)
    if not math.isfinite(lo):
        return np.arange(len(points))
    c = centers.take(witness.astype(np.intp, copy=False), axis=0, mode="clip")
    hit = _settles(points[:, 0] - c[:, 0], points[:, 1] - c[:, 1], lo)
    hit &= (witness >= 0) & (witness < len(centers))
    return np.flatnonzero(~hit)


def _settle_sq(limit: float) -> float:
    """The squared distance below which a center settles a row."""
    return limit * limit * (1.0 - _BAND)


def _settles(dx: np.ndarray, dy: np.ndarray, lo: float) -> np.ndarray:
    """Per row, whether ``dx*dx + dy*dy <= lo``: the test that settles it."""
    return dx * dx + dy * dy <= lo


def _tree_open_rows(points, centers, limit, tree, named):
    """``_open_rows`` by a cKDTree query: the rows with no center nearer
    than ``limit * _INSIDE`` are open, and the others' nearest center
    settles them."""
    inside = limit * _INSIDE
    tree = tree() if tree else kd_tree(centers)
    dist, idx = tree.query(points, distance_upper_bound=inside)
    open_ = np.flatnonzero(dist >= inside)
    if named:
        idx[open_] = -1
        return open_, idx
    return open_


def _any_within(px, py, a, cnt, cx, cy, lo, order) -> np.ndarray:
    """Per row i, whether one of the centers ``a[i] .. a[i] + cnt[i] - 1``
    of ``cx``/``cy`` has ``dx*dx + dy*dy <= lo``, or, given ``order``, the
    centers' indices before the sort, ``order[k]`` for the first such
    center k, or -1. Slot j tests the j-th center of every row not yet
    settled, and writes every such row, since it holds False or -1 so far
    (cheaper than selecting the settled ones); a row none of its first
    ``_MAX_SLOTS`` centers settles stays unsettled."""
    out = np.zeros(len(a), bool) if order is None else np.full(len(a), -1, np.intp)
    rows = np.flatnonzero(cnt != 0)
    for j in range(_MAX_SLOTS):
        if not len(rows):
            break
        k = a[rows] + j
        near = _settles(px[rows] - cx[k], py[rows] - cy[k], lo)
        out[rows] = near if order is None else np.where(near, order[k], -1)
        rows = rows[~near & (cnt[rows] > j + 1)]
    return out
