"""Strip-greedy and online covering algorithms.

* ``g1991``    -- partition into sqrt(2)-high horizontal strips, greedily
  cover each strip left-to-right with sqrt(2) x sqrt(2) squares, put a
  unit disk at each square center.
* ``ccfm1997`` -- online: each placed disk pre-positions six hexagonal
  candidate centers; an uncovered point promotes the nearest candidate
  within distance 1, or becomes a center itself.
* ``dgt2018``  -- online: a point becomes a center iff no existing
  center is within distance 1.

The two online algorithms take the points in blocks that keep the input
order. Where earlier centers covered enough of the previous block, one
cKDTree query over the centers placed so far drops the points they already
cover; the rest go through RadiusGrid (cell side 1, 3x3 probe) one by one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .geom import Cover, HALF_SQRT2, HALF_SQRT3, Point, SQRT2, SQRT3, as_points
from .gridindex import RadiusGrid

# Blocks double in size from _FIRST_BLOCK on, so a run builds O(log n)
# trees and each tree sees the centers of every earlier block. A tree is
# built for a block only if at least 1/_GATE of the previous block was
# covered on arrival: a tree query costs about a seventh of a RadiusGrid
# probe per point plus the build, so it pays only where many points are
# dropped, and sparse input (about one center per point) never builds one.
_FIRST_BLOCK = 256
_GATE = 4
# A center the tree finds nearer than this is within 1 in the solvers'
# own dx*dx + dy*dy <= 1 too, whatever the rounding of either, so the
# probe the dropped point skips would have found a center.
_INSIDE = 1.0 - 1e-9


def _uncovered_blocks(xy: np.ndarray, centers: Cover):
    """Yield the rows of xy, in order and as lists of [x, y], block by
    block, leaving out those that ``centers`` already covers. ``centers``
    is the caller's list of placed centers, which it grows by exactly one
    per yielded point that no center covers, before asking for the next
    block."""
    start, size = 0, _FIRST_BLOCK
    use_tree = False
    while start < len(xy):
        block = xy[start:start + size]
        placed = len(centers)
        if use_tree:
            tree = cKDTree(np.array(centers), balanced_tree=False, compact_nodes=False)
            dist, _ = tree.query(block, distance_upper_bound=_INSIDE)
            yield block[dist >= _INSIDE].tolist()
        else:
            yield block.tolist()
        uncovered = len(centers) - placed
        use_tree = (len(block) - uncovered) * _GATE >= len(block)
        start += size
        size *= 2


def g1991(points) -> Cover:
    """Strips are processed in increasing strip index, squares left to
    right; a square with left edge at the leftmost uncovered point
    covers every strip point within sqrt(2) of it in x (closed bound).
    """
    strips: dict[int, list] = {}
    floor = math.floor
    for p in as_points(points).tolist():
        strips.setdefault(floor(p[1] / SQRT2), []).append(p)
    centers: Cover = []
    for iy in sorted(strips):
        pts = sorted(strips[iy])
        cy = (iy + 0.5) * SQRT2
        n = len(pts)
        idx = 0
        while idx < n:
            qx = pts[idx][0]
            centers.append((qx + HALF_SQRT2, cy))
            limit = qx + SQRT2
            idx += 1
            while idx < n and pts[idx][0] <= limit:
                idx += 1
    return centers


def ccfm_spawn_inactive(p: Point) -> list[Point]:
    """The six hexagonal candidate centers spawned around a new disk,
    each at distance sqrt(3) from it."""
    x, y = p
    return [
        (x + SQRT3, y),
        (x + HALF_SQRT3, y + 1.5),
        (x + HALF_SQRT3, y - 1.5),
        (x - HALF_SQRT3, y + 1.5),
        (x - SQRT3, y),
        (x - HALF_SQRT3, y - 1.5),
    ]


class CcfmState:
    """Active (placed) and inactive (candidate) center indexes; the two
    sets stay disjoint, and the final cover is the active set."""

    def __init__(self):
        self.active = RadiusGrid(1.0)
        self.inactive = RadiusGrid(1.0)
        self.active_order: Cover = []

    def activate(self, p: Point) -> None:
        self.active.insert(p)
        self.active_order.append(p)
        for q in ccfm_spawn_inactive(p):
            self.inactive.insert(q)

    def promote(self, q: Point) -> None:
        if not self.inactive.remove(q):
            raise RuntimeError(f"promoted center {q} is not a candidate")
        self.active.insert(q)
        self.active_order.append(q)


def ccfm1997(points) -> Cover:
    state = CcfmState()
    for block in _uncovered_blocks(as_points(points), state.active_order):
        for xy in block:
            p = (xy[0], xy[1])
            if state.active.nearest_within(p, 1.0) is not None:
                continue
            hit = state.inactive.nearest_within(p, 1.0)
            if hit is not None:
                state.promote(hit[0])
            else:
                state.activate(p)
    return state.active_order


def dgt2018(points) -> Cover:
    centers = RadiusGrid(1.0)
    out: Cover = []
    for block in _uncovered_blocks(as_points(points), out):
        for xy in block:
            p = (xy[0], xy[1])
            if centers.nearest_within(p, 1.0) is None:
                centers.insert(p)
                out.append(p)
    return out
