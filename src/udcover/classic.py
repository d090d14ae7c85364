"""Strip-greedy and online covering algorithms.

* ``g1991``    -- partition into sqrt(2)-high horizontal strips, greedily
  cover each strip left-to-right with sqrt(2) x sqrt(2) squares, put a
  unit disk at each square center.
* ``ccfm1997`` -- online: each placed disk pre-positions six hexagonal
  candidate centers; an uncovered point promotes the nearest candidate
  within distance 1, or becomes a center itself.
* ``dgt2018``  -- online: a point becomes a center iff no existing
  center is within distance 1.

The two online algorithms use RadiusGrid for their nearest-neighbor
queries (cell side 1, 3x3 probe).
"""

from __future__ import annotations

import math

from .geom import Cover, HALF_SQRT2, HALF_SQRT3, Point, SQRT2, SQRT3, as_points
from .gridindex import RadiusGrid


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
    for xy in as_points(points).tolist():
        p = (xy[0], xy[1])
        if state.active.nearest_within(p, 1.0) is not None:
            continue
        if len(state.inactive) == 0:
            state.activate(p)
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
    for xy in as_points(points).tolist():
        p = (xy[0], xy[1])
        if centers.nearest_within(p, 1.0) is None:
            centers.insert(p)
            out.append(p)
    return out
