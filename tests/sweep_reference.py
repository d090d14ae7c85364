"""Plain-Python references for ``udcover.sweep``: the textbook stabbing
greedy, ll2014 built from it point by point and strip by strip (with the
same closed-form strips and segment margin as the numpy solver, and the
greedy run over every segment), blms2017 as the per-point sweep over a
sorted anchor index, and the linear scan that index is checked against."""

import math
from bisect import bisect_left, insort

from udcover.geom import (
    HALF_SQRT3,
    SQRT3,
    SQRT3_OVER_6,
    Point,
    as_points,
)


def stab_segments(x, segments):
    """Fewest stabs of vertical segments sharing abscissa x.

    ``segments`` holds (top, bottom) pairs. Taken by bottom, highest
    first, each segment the last stab misses (last stab > its top) is
    stabbed at its bottom. Returns the stab points in stab order, that is
    from the top down.
    """
    out = []
    for top, bottom in sorted(segments, key=lambda s: -s[1]):
        if not out or out[-1][1] > top:
            out.append((x, bottom))
    return out


def reference_ll2014(points, passes=6):
    pts = [tuple(p) for p in as_points(points).tolist()]
    if not pts:
        return []
    x_min = min(x for x, _ in pts)
    # from max |y| = 2^22 on, each segment shrinks inward by 2 ulp(max |y|)
    top_y = max(abs(y) for _, y in pts)
    margin = 2 * math.ulp(top_y) if top_y >= 2.0**22 else 0.0
    best = None
    for i in range(passes):
        origin = x_min + i * SQRT3_OVER_6
        strips = {}
        for x, y in pts:
            k = math.floor((x - origin) / SQRT3)
            x_rl = origin + (k + 0.5) * SQRT3
            d = x - x_rl
            half = math.sqrt(1.0 - d * d) - margin
            strips.setdefault(k, (x_rl, []))[1].append((y + half, y - half))
        cover = []
        for k in sorted(strips):
            cover.extend(stab_segments(*strips[k]))
        if best is None or len(cover) < len(best):
            best = cover
    return best


def nearest_anchor_scan(anchors, p):
    """Linear-scan reference for blms2017's sliding-window query: nearest
    anchor restricted to |x - p.x| <= 2 and |y - p.y| <= 2, ties by
    list position. Anchors outside that box are at distance > 2 and
    never influence the sweep."""
    best = None
    best_d = None
    for idx, (x, y) in enumerate(anchors):
        if abs(x - p[0]) > 2.0 or abs(y - p[1]) > 2.0:
            continue
        d = (x - p[0]) ** 2 + (y - p[1]) ** 2
        if best_d is None or d < best_d:
            best_d = d
            best = idx
    return best


# The blms2017 sweep as it was before the anchor-driven rewrite: one
# ``_AnchorIndex.nearest`` query per point. Copied verbatim; only the
# entry points are renamed.

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


def reference_blms2017(points) -> list[Point]:
    """Sweep cover with empty-disk elimination: only disks that received
    at least one point survive."""
    out: list[Point] = []
    for a in _blms_anchors(points):
        out.extend(c for d, c in enumerate(a.disks) if a.occupancy[d] > 0)
    return out


def reference_blms2017_raw(points) -> list[Point]:
    """All four disks of every anchor, before empty-disk elimination."""
    out: list[Point] = []
    for a in _blms_anchors(points):
        out.extend(a.disks)
    return out
