"""Grid-hashing cover algorithms.

Three optimization levels over the same sqrt(2)-grid idea:

* ``fast_cover``       -- place the grid-disk of every nonempty cell.
* ``fast_cover_plus``  -- before placing, test whether an already-placed
  E/W/N/S neighbor grid-disk covers the point (threshold-gated so most
  points skip the distance checks entirely).
* ``fast_cover_pp``    -- ``build_disk_table`` also boxes the points each
  grid-disk takes, then ``coalesce_pass`` merges adjacent disks whose
  combined box has diagonal at most 2 into a single disk.

``fast_cover_plus`` and ``build_disk_table`` share one placement pass over
arrays (``_place``): only the points whose fate depends on input order go
through a Python loop.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geom import Cover, INV_SQRT2, SQRT2, bounded_points, run_starts

# gate offsets relative to the cell's lower-left corner: a neighbor disk
# can only reach points past these lines (far side / near side)
_GATE_FAR = 1.5 * SQRT2 - 1.0
_GATE_NEAR = 1.0 - 0.5 * SQRT2

# neighbor test order when placing: E, W, N, S
_PLACE_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))

# the neighbors that come after a cell in (i, j) order, in row-major
# order; the earlier four can never be coalesce partners (see coalesce_pass)
_LATER_NEIGHBORS = ((0, 1), (1, -1), (1, 0), (1, 1))


def _floor_cells(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(xy / sqrt(2)) of n >= 1 points, as floats and as int64 cell
    indices."""
    floor = np.floor(xy / SQRT2)
    return floor, floor.astype(np.int64)


class _Cells:
    """The distinct cells among n (i, j) pairs, numbered in (i, j) order.

    A cell's key is i * span + j, span the number of j values in the
    cells' bounding box. Keys keep (i, j) order and never collide; below
    ``COORD_BOUND`` their magnitude stays under 2^45.
    """

    def __init__(self, ij: np.ndarray):
        j = ij[:, 1]
        self.span = int(j.max()) - int(j.min()) + 1
        key = ij[:, 0] * self.span + j
        order = key.argsort()
        sorted_key = key[order]
        new = run_starts(sorted_key)
        start = new.nonzero()[0]
        self.key = sorted_key[start]
        self.id = np.empty(len(key), dtype=np.intp)  # cell of each item
        self.id[order] = new.cumsum() - 1
        # items grouped by cell, to reduce over each cell's items
        self.order = order
        self.start = start
        self.first = np.minimum.reduceat(order, start)  # earliest item
        self.i = ij[:, 0].take(self.first)
        self.j = ij[:, 1].take(self.first)
        # grid-disk centers
        self.cx = SQRT2 * self.i + INV_SQRT2
        self.cy = SQRT2 * self.j + INV_SQRT2

    def neighbors(self, offsets) -> np.ndarray:
        """For every cell (rows) and each (di, dj) in ``offsets``
        (columns): the index of the cell (i + di, j + dj), or -1 where
        that cell is empty."""
        m = len(self.key)
        pos = np.empty((len(offsets), m), dtype=np.intp)
        row_at = {}
        for col, (di, dj) in enumerate(offsets):
            if di == 0:
                pos[col] = np.arange(dj, m + dj)
                continue
            # (i + di, j - 1), (i + di, j) and (i + di, j + 1) are
            # adjacent in key order, so one search per di places all three
            row = self.key + di * self.span
            if di not in row_at:
                row_at[di] = self.key.searchsorted(row)
            if dj > 0:
                pos[col] = row_at[di] + (self.key.take(row_at[di], mode="clip") == row)
            else:
                pos[col] = row_at[di] + dj
        di, dj = np.array(offsets).T[:, :, None]
        hit = ((self.i.take(pos, mode="clip") == self.i + di)
               & (self.j.take(pos, mode="clip") == self.j + dj))
        return np.where(hit, pos, -1).T

    def centers(self, cells: np.ndarray) -> Cover:
        """Grid-disk centers of the given cells, in that order."""
        return np.column_stack((self.cx.take(cells), self.cy.take(cells)))


class _Placement(NamedTuple):
    cells: _Cells
    placed_at: np.ndarray  # per cell: index of the point that placed it, n if none
    dep: np.ndarray        # the points whose disk depended on input order
    dep_owner: list        # per dep point: the cell whose disk it joined
    xy: np.ndarray         # the points, (n, 2)


def _place(xy: np.ndarray) -> _Placement:
    """The fast_cover_plus pass over n >= 1 points.

    In input order, a point joins its own cell's disk if placed, else the
    first placed E/W/N/S neighbor disk whose gate it passes and that is
    within distance 1, else places its own cell's disk. A point's choice
    depends on input order only when some neighbor could take it and it
    comes before the first point of its cell that no neighbor can take;
    only those points go through the sequential loop.
    """
    n = len(xy)
    floor, ij = _floor_cells(xy)
    cells = _Cells(ij)
    cid = cells.id
    corner = floor * SQRT2
    gates = np.empty((n, 4), dtype=bool)  # columns E, W, N, S
    np.greater_equal(xy, corner + _GATE_FAR, out=gates[:, 0::2])
    np.less_equal(xy, corner + _GATE_NEAR, out=gates[:, 1::2])
    # (point, neighbor cell) pairs where that neighbor could take the
    # point: gate passed, neighbor nonempty, within distance 1, and one of
    # the neighbor's points comes earlier (else it cannot be placed yet)
    pts, d = gates.nonzero()
    nb = cells.neighbors(_PLACE_DIRS)[cid[pts], d]
    dx = xy[:, 0].take(pts) - cells.cx.take(nb)
    dy = xy[:, 1].take(pts) - cells.cy.take(nb)
    ok = (nb >= 0) & (dx * dx + dy * dy <= 1.0) & (cells.first.take(nb) < pts)
    pts = pts[ok]
    reach = np.full((n, 4), -1, dtype=np.intp)  # columns E, W, N, S
    reach[pts, d[ok]] = nb[ok]
    takeable = np.zeros(n, dtype=bool)
    takeable[pts] = True
    # per cell: the first point that no neighbor can take (n if none)
    index = np.arange(n)
    firm = np.where(takeable, n, index)
    placed_at = np.minimum.reduceat(firm[cells.order], cells.start)
    dep = (takeable & (index < placed_at[cid])).nonzero()[0]

    t = placed_at.tolist()
    own = []
    for k, c, near in zip(dep.tolist(), cid[dep].tolist(), reach[dep].tolist()):
        if t[c] > k:  # own disk not placed yet
            for e in near:  # E, W, N, S
                if e >= 0 and t[e] < k:
                    c = e
                    break
            else:
                t[c] = k
        own.append(c)
    return _Placement(cells, np.array(t), dep, own, xy)


def _boxes(p: _Placement) -> tuple[np.ndarray, np.ndarray]:
    """The placed cells in (i, j) order, and a (4, m) array of the
    bounding boxes (rows xmin, ymin, xmax, ymax) of the points assigned
    to their disks."""
    owner = p.cells.id.copy()  # cell of the disk each point joined
    owner[p.dep] = p.dep_owner
    by_owner = owner.argsort()
    start = run_starts(owner[by_owner]).nonzero()[0]
    disks = owner[by_owner[start]]
    x = p.xy[:, 0].take(by_owner)
    y = p.xy[:, 1].take(by_owner)
    box = np.array([np.minimum.reduceat(x, start), np.minimum.reduceat(y, start),
                    np.maximum.reduceat(x, start), np.maximum.reduceat(y, start)])
    # A box keeps its first point's value among equal ones, and the
    # reductions do not promise which of -0.0 and 0.0 they return.
    for axis in (0, 1):
        v = p.xy[:, axis]
        zero = np.flatnonzero(v == 0.0)
        if len(zero):
            group, first = np.unique(np.searchsorted(disks, owner[zero]),
                                     return_index=True)
            for edge in box[axis::2]:
                z = edge[group] == 0.0
                edge[group[z]] = v[zero[first[z]]]
    return disks, box


class DiskTable:
    """The placement's cells, and its disks and boxes as ``_boxes`` gives them."""

    __slots__ = ("cells", "disks", "box")

    def __init__(self, cells, disks, box):
        self.cells = cells
        self.disks = disks
        self.box = box

    def __len__(self) -> int:
        return len(self.disks)


def fast_cover(points) -> Cover:
    """One grid-disk per distinct nonempty cell, in first-occurrence
    order of the input. O(n log n) time: the cells are numbered by sorting."""
    xy = bounded_points(points)
    if len(xy) == 0:
        return np.empty((0, 2))
    cells = _Cells(_floor_cells(xy)[1])
    return cells.centers(cells.first.argsort())


def fast_cover_plus(points) -> Cover:
    """Single pass; a point whose own cell-disk is absent is first tested
    against the E, W, N, S neighbor disks (in that order) before a new
    grid-disk is placed. Disks are listed in placement order."""
    xy = bounded_points(points)
    if len(xy) == 0:
        return np.empty((0, 2))
    p = _place(xy)
    placed = (p.placed_at < len(xy)).nonzero()[0]
    return p.cells.centers(placed[p.placed_at[placed].argsort()])


def build_disk_table(points) -> DiskTable:
    """fastcover++'s first stage: the fast_cover_plus pass, keeping per
    placed grid-disk the bounding box of the points assigned to it (a
    neighbor-cover hit extends that neighbor's box), in (i, j) order."""
    xy = bounded_points(points)
    if len(xy) == 0:
        return DiskTable(None, np.empty(0, dtype=np.intp), np.empty((4, 0)))
    p = _place(xy)
    return DiskTable(p.cells, *_boxes(p))


def coalesce_pass(table: DiskTable) -> Cover:
    """fastcover++'s second stage: merge adjacent grid-disks whose
    combined point bounding box has diagonal <= 2 into a single disk at
    the box center.

    Disks are visited in (i, j) order; the 8 neighbors of a disk are
    scanned in row-major order and the first eligible partner wins.
    Merged disks are terminal: they never take part in a later merge.
    Merged centers come first in the output, then the surviving
    grid-disk centers, both in (i, j) order. ``table`` is not modified.

    A disk that survives its visit found every present neighbor
    ineligible, and the test is symmetric, so only the four later
    neighbors can be partners; only the eligible pairs are walked.
    """
    if not len(table):
        return np.empty((0, 2))
    cells, disks, box = table.cells, table.disks, table.box
    m = len(disks)
    slot = np.full(len(cells.key) + 1, -1, dtype=np.intp)  # slot[-1] stays -1
    slot[disks] = np.arange(m)
    partner = slot[cells.neighbors(_LATER_NEIGHBORS)[disks]]
    rows, cols = (partner >= 0).nonzero()
    partner = partner[rows, cols]
    a = box.take(rows, axis=1)
    b = box.take(partner, axis=1)
    lo = np.where(a[:2] < b[:2], a[:2], b[:2])
    hi = np.where(a[2:] > b[2:], a[2:], b[2:])
    d = hi - lo
    eligible = (d[0] * d[0] + d[1] * d[1] <= 4.0).nonzero()[0]
    alive = [True] * m
    merges = []
    for pair, r, q in zip(eligible.tolist(), rows[eligible].tolist(),
                          partner[eligible].tolist()):
        if alive[r] and alive[q]:
            alive[r] = alive[q] = False
            merges.append(pair)
    mid = (lo[:, merges] + hi[:, merges]) / 2.0
    return np.concatenate((mid.T, cells.centers(disks[np.array(alive, dtype=bool)])))


def fast_cover_pp(points) -> Cover:
    """fast_cover_plus's disks with their point boxes, then one coalescing pass."""
    return coalesce_pass(build_disk_table(points))
