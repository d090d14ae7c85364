"""Grid-hashing cover algorithms.

Three optimization levels over the same sqrt(2)-grid idea:

* ``fast_cover``       -- place the grid-disk of every nonempty cell.
* ``fast_cover_plus``  -- before placing, test whether an already-placed
  E/W/N/S neighbor grid-disk covers the point (threshold-gated so most
  points skip the distance checks entirely).
* ``fast_cover_pp``    -- ``build_disk_table`` also boxes the points each
  grid-disk takes, then ``coalesce_pass`` merges adjacent disks whose
  combined box has diagonal at most 2 into a single disk.

All three number the nonempty cells once (``_Cells``): in O(n) time by a
radix sort where the cells' key box holds at most 2^16 keys, else by
argsort. ``fast_cover_plus`` and ``build_disk_table`` share one placement
pass over arrays (``_place``): only the points whose fate depends on input
order go through a Python loop.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geom import Cover, INV_SQRT2, SQRT2, bounded_points, key_order, run_starts, unsort

# gate offsets relative to the cell's lower-left corner: a neighbor disk
# can only reach points past these lines (far side / near side)
_GATE_FAR = 1.5 * SQRT2 - 1.0
_GATE_NEAR = 1.0 - 0.5 * SQRT2

# neighbor test order when placing: E, W, N, S
_PLACE_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))

# the neighbors that come after a cell in (i, j) order, in row-major
# order; the earlier four can never be coalesce partners (see coalesce_pass)
_LATER_NEIGHBORS = ((0, 1), (1, -1), (1, 0), (1, 1))


class _Cells:
    """The distinct cells (i, j) = floor(xy / sqrt(2)) of n points,
    numbered in (i, j) order.

    A cell's key is (i - i_min) * span + j - j_min, span one more than the
    number of j values in the cells' bounding box. Keys keep (i, j) order,
    and the spare j keeps a neighbor's key apart from every other cell's:
    (i + di, j + dj), |dj| <= 1, has key + di * span + dj. Below
    ``COORD_BOUND`` keys stay under 2^46; where the key box holds at most
    2^16 keys, ``key_order`` sorts them by radix. ``id``, each item's
    cell, is numbered on first read: ``fast_cover`` reads it only for the
    argsort path's earliest items, and for its witness. The reductions'
    initial values lie past ``bounded_points``' |i|, |j| < 2^22, so n = 0
    gives no cells; 0 would stretch the key box to the origin.
    """

    def __init__(self, floor: np.ndarray):
        i = floor[:, 0].astype(np.int64)
        j = floor[:, 1].astype(np.int64)
        i0, j0 = int(i.min(initial=2**22)), int(j.min(initial=2**22))
        self.span = int(j.max(initial=-2**22)) - j0 + 2
        key = i * self.span
        key += j
        key -= i0 * self.span + j0
        size = (int(i.max(initial=-2**22)) - i0 + 1) * self.span
        order = key_order(key, size)
        sorted_key = key.take(order)
        new = run_starts(sorted_key)
        start = np.flatnonzero(new)
        self.key = sorted_key.take(start)
        self._sort = order, new
        self.first = order.take(start)  # earliest item if the radix sort (stable) ran
        if size > 2**16:
            np.minimum.at(self.first, self.id, np.arange(len(key)))
        self.center = SQRT2 * floor.take(self.first, axis=0) + INV_SQRT2  # grid-disk centers
        self.row_at = {}  # di: where each key + di * span is or would go

    @cached_property
    def id(self) -> np.ndarray:
        """The cell of each item."""
        order, new = self._sort
        self._sort = None  # read once
        return unsort(new.cumsum() - 1, order)

    def neighbors(self, offsets) -> np.ndarray:
        """For each (di, dj) in ``offsets`` (rows) and every cell
        (columns): the index of the cell (i + di, j + dj), or -1 where
        that cell is empty."""
        key = self.key
        m = len(key)
        out = np.empty((len(offsets), m), dtype=np.intp)
        for col, (di, dj) in enumerate(offsets):
            want = key + (di * self.span + dj)
            if di == 0:
                pos = np.arange(dj, m + dj)
            else:
                # (i + di, j - 1), (i + di, j) and (i + di, j + 1) are
                # adjacent in key order, so one search per di places all three
                if di not in self.row_at:
                    self.row_at[di] = key.searchsorted(want - dj)
                pos = self.row_at[di] + min(dj, 0)
                if dj > 0:
                    pos += key.take(pos, mode="clip") < want
            out[col] = np.where(key.take(pos, mode="clip") == want, pos, -1)
        return out


class _Placement(NamedTuple):
    cells: _Cells
    placed_at: np.ndarray  # per cell: index of the point that placed it, n if none
    dep: np.ndarray        # the points whose disk depended on input order
    dep_owner: list        # per dep point: the cell whose disk it joined
    xy: np.ndarray         # the points, (n, 2)


def _place(xy: np.ndarray) -> _Placement:
    """The fast_cover_plus pass over the points.

    In input order, a point joins its own cell's disk if placed, else the
    first placed E/W/N/S neighbor disk whose gate it passes and that is
    within distance 1, else places its own cell's disk. A point's choice
    depends on input order only when some neighbor could take it and it
    comes before the first point of its cell that no neighbor can take;
    only those points go through the sequential loop.
    """
    n = len(xy)
    floor = np.floor(xy / SQRT2)
    cells = _Cells(floor)
    cid = cells.id
    corner = floor * SQRT2
    gates = np.empty((n, 4), dtype=bool)  # columns E, W, N, S
    np.greater_equal(xy, corner + _GATE_FAR, out=gates[:, 0::2])
    np.less_equal(xy, corner + _GATE_NEAR, out=gates[:, 1::2])
    # (point, neighbor cell) pairs where that neighbor could take the
    # point: gate passed, neighbor nonempty, within distance 1, and one of
    # the neighbor's points comes earlier (else it cannot be placed yet)
    pairs = np.flatnonzero(gates)
    pts, d = pairs >> 2, pairs & 3
    home = cid.take(pts)
    nb = cells.neighbors(_PLACE_DIRS).ravel().take(d * len(cells.key) + home)
    dxy = xy.take(pts, axis=0) - cells.center.take(nb, axis=0)
    dxy *= dxy
    ok = np.flatnonzero((nb >= 0) & (dxy[:, 0] + dxy[:, 1] <= 1.0)
                        & (cells.first.take(nb) < pts))
    pts, d, nb, home = pts.take(ok), d.take(ok), nb.take(ok), home.take(ok)
    # per cell: the first point that no neighbor can take (n if none)
    firm = np.arange(n)
    firm[pts] = n
    placed_at = np.full(len(cells.key), n)
    np.minimum.at(placed_at, cid, firm)
    # the pairs of the points that come before their cell's firm point:
    # the dependent points, which the loop visits in input order
    before = np.flatnonzero(pts < placed_at.take(home))
    pts = pts.take(before)
    new = run_starts(pts)
    dep = pts.compress(new)
    reach = np.full((len(dep), 4), -1, dtype=np.intp)  # columns E, W, N, S
    reach[new.cumsum() - 1, d.take(before)] = nb.take(before)
    t = memoryview(placed_at)  # the loop reads and places in placed_at
    own = []
    for k, c, near in zip(dep.tolist(), cid.take(dep).tolist(), reach.tolist()):
        if t[c] > k:  # own disk not placed yet
            for e in near:  # E, W, N, S
                if e >= 0 and t[e] < k:
                    c = e
                    break
            else:
                t[c] = k
        own.append(c)
    return _Placement(cells, placed_at, dep, own, xy)


def _joined(p: _Placement, disks: np.ndarray) -> np.ndarray:
    """Per point, the index in ``disks``, the placed cells in output
    order, of the cell whose disk it joined."""
    slot = np.empty(len(p.placed_at), dtype=np.intp)
    slot[disks] = np.arange(len(disks))
    out = slot.take(p.cells.id)
    out[p.dep] = slot.take(p.dep_owner)
    return out


def _boxes(p: _Placement) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The placed cells in (i, j) order, a (4, m) array of the bounding
    boxes (rows xmin, ymin, xmax, ymax) of the points assigned to their
    disks, and per point the index of the disk it joined."""
    disks = (p.placed_at < len(p.xy)).nonzero()[0]
    owner = _joined(p, disks)
    box = np.full((4, len(disks)), np.inf)
    box[2:] = -np.inf
    for axis in (0, 1):
        v = p.xy[:, axis]
        np.minimum.at(box[axis], owner, v)
        np.maximum.at(box[axis + 2], owner, v)
        # A box keeps its first point's value among equal ones, and the
        # reductions do not promise which of -0.0 and 0.0 they keep.
        zero = np.flatnonzero(v == 0.0)
        if len(zero):
            group, first = np.unique(owner[zero], return_index=True)
            for edge in box[axis::2]:
                z = edge[group] == 0.0
                edge[group[z]] = v[zero[first[z]]]
    return disks, box, owner


class DiskTable:
    """The placement's cells, and its disks, boxes and point owners as
    ``_boxes`` gives them."""

    __slots__ = ("cells", "disks", "box", "owner")

    def __init__(self, cells, disks, box, owner):
        self.cells = cells
        self.disks = disks
        self.box = box
        self.owner = owner

    def __len__(self) -> int:
        return len(self.disks)


def fast_cover(points) -> Cover:
    """One grid-disk per distinct nonempty cell, in first-occurrence
    order of the input. O(n) time by radix sorts where n and the cells'
    key box are at most 2^16, else O(n log n)."""
    return _fast_cover(points)[0]


def _fast_cover(points):
    """``fast_cover``'s cover, and a callable that gives per point the
    index of its cell's disk in it."""
    xy = bounded_points(points)
    cells = _Cells(np.floor(xy / SQRT2))
    order = key_order(cells.first, len(xy))
    return (cells.center.take(order, axis=0),
            lambda: unsort(np.arange(len(order)), order).take(cells.id))


def fast_cover_plus(points) -> Cover:
    """Single pass; a point whose own cell-disk is absent is first tested
    against the E, W, N, S neighbor disks (in that order) before a new
    grid-disk is placed. Disks are listed in placement order."""
    return _fast_cover_plus(points)[0]


def _fast_cover_plus(points):
    """``fast_cover_plus``'s cover, and a callable that gives per point
    the index of the disk it joined in it."""
    p = _place(bounded_points(points))
    placed = (p.placed_at < len(p.xy)).nonzero()[0]
    placed = placed[key_order(p.placed_at[placed], len(p.xy))]
    return p.cells.center.take(placed, axis=0), lambda: _joined(p, placed)


def build_disk_table(points) -> DiskTable:
    """fastcover++'s first stage: the fast_cover_plus pass, keeping per
    placed grid-disk the bounding box of the points assigned to it (a
    neighbor-cover hit extends that neighbor's box), in (i, j) order."""
    p = _place(bounded_points(points))
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
    return _coalesce(table)[0]


def _coalesce(table: DiskTable):
    """``coalesce_pass``'s cover, and a callable that gives per disk of
    the table the index of its center, or of its merged one, in it."""
    cells, disks, box = table.cells, table.disks, table.box
    m = len(disks)
    slot = np.full(len(cells.key) + 1, -1, dtype=np.intp)  # slot[-1] stays -1
    slot[disks] = np.arange(m)
    partner = slot.take(cells.neighbors(_LATER_NEIGHBORS).take(disks, axis=1).T).ravel()
    pairs = np.flatnonzero(partner >= 0)
    rows, partner = pairs >> 2, partner.take(pairs)
    a = box.take(rows, axis=1)
    b = box.take(partner, axis=1)
    lo = np.where(a[:2] < b[:2], a[:2], b[:2])
    hi = np.where(a[2:] > b[2:], a[2:], b[2:])
    d = hi - lo
    eligible = np.flatnonzero(d[0] * d[0] + d[1] * d[1] <= 4.0)
    alive = bytearray(b"\x01") * m
    merges = []
    for pair, r, q in zip(eligible.tolist(), rows.take(eligible).tolist(),
                          partner.take(eligible).tolist()):
        if alive[r] and alive[q]:
            alive[r] = alive[q] = 0
            merges.append(pair)
    mid = ((lo + hi) / 2.0).take(merges, axis=1)
    kept = np.frombuffer(alive, dtype=bool)
    survivors = disks.compress(kept)

    def position():
        at = np.empty(m, dtype=np.intp)
        at[rows.take(merges)] = at[partner.take(merges)] = np.arange(len(merges))
        at[kept] = np.arange(len(merges), len(merges) + len(survivors))
        return at

    return np.concatenate((mid.T, cells.center.take(survivors, axis=0))), position


def fast_cover_pp(points) -> Cover:
    """fast_cover_plus's disks with their point boxes, then one coalescing pass."""
    return _fast_cover_pp(points)[0]


def _fast_cover_pp(points):
    """``fast_cover_pp``'s cover, and a callable that gives per point the
    index in it of the disk it ended in."""
    table = build_disk_table(points)
    cover, position = _coalesce(table)
    return cover, lambda: position().take(table.owner)
