"""Sorting-based covering algorithms.

* ``ll2014``   -- vertical strips of width sqrt(3); each point in a strip
  induces a vertical segment on the strip midline (the locus of midline
  centers covering it), and the fewest stabs of those segments are the
  disk centers. Six pass offsets of sqrt(3)/6 are tried and the smallest
  cover kept; ``passes=1`` is the one-pass variant.
* ``blms2017`` -- left-to-right sweep; a point farther than 2 from every
  anchor becomes an anchor and places four disks covering the right half
  of its radius-2 neighborhood. Disks that end up covering no point are
  dropped from the result.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import count

import numpy as np

from .geom import Cover, HALF_SQRT3, Point, SQRT3, SQRT3_OVER_6, as_points


def ll2014(points, passes: int = 6) -> Cover:
    """Strip-and-stab cover; ``passes`` must be 1 or 6.

    Pass i's strips are [o + k*sqrt(3), o + (k+1)*sqrt(3)), with
    o = min x + i*sqrt(3)/6. Per strip, the points' midline segments are
    taken by bottom, highest first, and each one the last stab misses is
    stabbed at its bottom: the fewest stabs. Strips run left to right,
    stabs top down. Raises ValueError where rounding leaves a point more
    than 1 from its strip's midline (|x| from about 2^51 to 2^52).
    """
    if passes not in (1, 6):
        raise ValueError("passes must be 1 or 6")
    xy = as_points(points)
    if len(xy) == 0:
        return []
    x, y = xy.T
    x_min = x.min()
    best = None
    for i in range(passes):
        origin = x_min + i * SQRT3_OVER_6
        strip = np.floor((x - origin) / SQRT3)
        x_rl = origin + (strip + 0.5) * SQRT3
        d = x - x_rl
        half_sq = 1.0 - d * d
        if not half_sq.min() >= 0.0:
            raise ValueError("a point lies more than 1 from its strip's "
                             "midline: coordinates too large")
        half = np.sqrt(half_sq)
        bottom = y - half
        # order by (strip, -bottom): equal bottoms give equal stabs, so
        # an unstable sort by -bottom and a stable one by strip do, at
        # half the cost of a lexsort
        order = np.argsort(-bottom)
        order = order[np.argsort(strip[order], kind="stable")]
        bottom = bottom[order]
        strip = strip[order]
        top = (y + half)[order]
        # a strip's first segment always opens a stab
        top[np.r_[True, strip[1:] != strip[:-1]]] = -np.inf
        stabs = []
        last = 0.0
        for s, t, b in zip(count(), top.tolist(), bottom.tolist()):
            if last > t:
                last = b
                stabs.append(s)
        if best is None or len(stabs) < len(best[0]):
            best = (x_rl[order[stabs]], bottom[stabs])
    return list(zip(best[0].tolist(), best[1].tolist()))


def ll2014_1p(points) -> Cover:
    return ll2014(points, passes=1)


class _Anchor:
    __slots__ = ("x", "y", "idx", "disks", "occupancy")

    def __init__(self, x: float, y: float, idx: int):
        self.x = x
        self.y = y
        self.idx = idx
        # quad order fixed: center, right, upper, lower
        self.disks = (
            (x, y),
            (x + SQRT3, y),
            (x + HALF_SQRT3, y + 1.5),
            (x + HALF_SQRT3, y - 1.5),
        )
        self.occupancy = [0, 0, 0, 0]


class _AnchorIndex:
    """Anchors keyed by y with a sliding x-window of width 2.

    Anchors arrive in nondecreasing x; ``nearest`` retires anchors left
    of the window and scans only candidates within 2 in y.
    """

    def __init__(self):
        self._by_y: list[tuple[float, float, int]] = []  # (y, x, idx)
        self._by_x: list[tuple[float, float, int]] = []  # creation order
        self._retired = 0
        self.anchors: list[_Anchor] = []

    def add(self, a: _Anchor) -> None:
        self.anchors.append(a)
        insort(self._by_y, (a.y, a.x, a.idx))
        self._by_x.append((a.x, a.y, a.idx))

    def nearest(self, p: Point) -> _Anchor | None:
        """Nearest live anchor with x >= p.x - 2; ties broken by
        creation order."""
        px, py = p
        while self._retired < len(self._by_x) and self._by_x[self._retired][0] < px - 2.0:
            x, y, idx = self._by_x[self._retired]
            pos = bisect_left(self._by_y, (y, x, idx))
            del self._by_y[pos]
            self._retired += 1
        lo = bisect_left(self._by_y, (py - 2.0, -float("inf"), -1))
        best = None
        best_key = None
        for k in range(lo, len(self._by_y)):
            y, x, idx = self._by_y[k]
            if y > py + 2.0:
                break
            dx = x - px
            dy = y - py
            d = dx * dx + dy * dy
            key = (d, idx)
            if best_key is None or key < best_key:
                best_key = key
                best = idx
        if best is None:
            return None
        return self.anchors[best]


def _blms_anchors(points) -> list[_Anchor]:
    pts = sorted(map(tuple, as_points(points).tolist()))
    index = _AnchorIndex()
    for x, y in pts:
        p = (x, y)
        near = index.nearest(p)
        if near is None or (near.x - x) ** 2 + (near.y - y) ** 2 > 4.0:
            near = _Anchor(x, y, len(index.anchors))
            index.add(near)
        assigned = False
        for d, (cx, cy) in enumerate(near.disks):
            if (cx - x) ** 2 + (cy - y) ** 2 <= 1.0:
                near.occupancy[d] += 1
                assigned = True
                break
        # the quad covers the right half of the anchor's radius-2
        # neighborhood, and p is right of (or at) its anchor
        if not assigned:
            raise RuntimeError(f"point {p} not covered by its quad")
    return index.anchors


def blms2017(points) -> Cover:
    """Sweep cover with empty-disk elimination: only disks that received
    at least one point survive."""
    out: Cover = []
    for a in _blms_anchors(points):
        out.extend(c for d, c in enumerate(a.disks) if a.occupancy[d] > 0)
    return out


def blms2017_raw(points) -> Cover:
    """All four disks of every anchor, before empty-disk elimination."""
    out: Cover = []
    for a in _blms_anchors(points):
        out.extend(a.disks)
    return out
