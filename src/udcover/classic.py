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
cover; the rest go through RadiusGrid (cell side 1, 3x3 probe) one by one,
except the lone ones. A lone point has no other input point within the
solver's reach: 1 for dgt2018, 1 + sqrt(3) for ccfm1997, whose candidates
lie sqrt(3) from the point that placed them. Every probe of a lone point
misses, so it becomes a center, and no later probe finds it or its
candidates; it goes straight into the cover. One cKDTree query over all
points finds them, where the bounding box says that enough are lone.
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
# The same share gates the one tree that finds the lone points.
_FIRST_BLOCK = 256
_GATE = 4
# A center the tree finds nearer than this is within 1 in the solvers'
# own dx*dx + dy*dy <= 1 too, whatever the rounding of either, so the
# probe the dropped point skips would have found a center.
_INSIDE = 1.0 - 1e-9


def _lone(xy: np.ndarray, reach: float) -> np.ndarray | None:
    """A mask of the rows of xy with no other row within ``reach``, or None
    where the bounding box puts the expected lone share, exp(-pi reach^2 n /
    area) for uniform points, below 1/_GATE. The tree's radius has a margin
    far above the rounding of either distance, so a row it calls lone is
    farther than ``reach`` from every other row in the solvers' own
    arithmetic, and candidates placed around it, too."""
    if len(xy) < 2:
        return None
    # per column (xy.max(axis=0) is over ten times slower), as Python
    # floats, which overflow to inf without a warning
    x, y = xy[:, 0], xy[:, 1]
    x_lo, x_hi, y_lo, y_hi = float(x.min()), float(x.max()), float(y.min()), float(y.max())
    area = (x_hi - x_lo) * (y_hi - y_lo)
    if not area > 0 or math.exp(-math.pi * reach * reach * len(xy) / area) * _GATE < 1:
        return None
    r = reach + 1e-6 + 16 * math.ulp(max(-x_lo, x_hi, -y_lo, y_hi) + reach)
    tree = cKDTree(xy, balanced_tree=False, compact_nodes=False)
    # k=[2]: only the second nearest row; the nearest is the row itself
    dist, _ = tree.query(xy, k=[2], distance_upper_bound=r)
    return dist[:, 0] > r


def _uncovered_blocks(xy: np.ndarray, centers: Cover, reach: float):
    """Yield the rows of xy, in order and as lists of [x, y], in runs,
    leaving out those that ``centers`` already covers and the lone ones
    (see ``_lone``). ``centers`` is the caller's list of placed centers,
    which it grows by exactly one per yielded point that no center covers,
    before asking for the next run; each lone row's (x, y) is appended here,
    in its place in the input order."""
    lone = _lone(xy, reach)
    start, size = 0, _FIRST_BLOCK
    use_tree = False
    while start < len(xy):
        block = xy[start:start + size]
        placed = len(centers)
        keep = slice(None)
        if use_tree:
            tree = cKDTree(np.array(centers), balanced_tree=False, compact_nodes=False)
            dist, _ = tree.query(block, distance_upper_bound=_INSIDE)
            keep = dist >= _INSIDE
        rows = block[keep].tolist()
        if lone is None:
            yield rows
        else:
            prev = 0
            for i in np.flatnonzero(lone[start:start + size][keep]).tolist():
                if i > prev:
                    yield rows[prev:i]
                x, y = rows[i]
                centers.append((x, y))
                prev = i + 1
            if prev < len(rows):
                yield rows[prev:]
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
    for block in _uncovered_blocks(as_points(points), state.active_order, 1.0 + SQRT3):
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
    for block in _uncovered_blocks(as_points(points), out, 1.0):
        for xy in block:
            p = (xy[0], xy[1])
            if centers.nearest_within(p, 1.0) is None:
                centers.insert(p)
                out.append(p)
    return out
