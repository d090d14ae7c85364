"""Sorting-based covering algorithms.

* ``ll2014``   -- vertical strips of width sqrt(3); each point in a strip
  induces a vertical segment on the strip midline (the locus of midline
  centers covering it), and a greedy interval stabbing of those segments
  yields the disk centers. Six pass offsets of sqrt(3)/6 are tried and
  the smallest cover kept; ``passes=1`` is the one-pass variant.
* ``blms2017`` -- left-to-right sweep; a point farther than 2 from every
  anchor becomes an anchor and places four disks covering the right half
  of its radius-2 neighborhood. Disks that end up covering no point are
  dropped from the result.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .geom import Cover, HALF_SQRT3, Point, SQRT3, SQRT3_OVER_6, as_points


def stab_segments(x: float, segments: list[tuple[float, float]]) -> Cover:
    """Greedy stabbing of vertical segments sharing abscissa x.

    ``segments`` holds (top, bottom) pairs. Repeatedly the unstabbed
    segment with the greatest top is stabbed as low as possible (at its
    bottom). Ties on top break toward the lower bottom. Returns the stab
    points in stab order.
    """
    if not segments:
        return []
    order = sorted(segments, key=lambda s: (-s[0], s[1]))
    stabs_sorted: list[float] = []
    out: Cover = []
    for top, bottom in order:
        idx = bisect_left(stabs_sorted, bottom)
        if idx < len(stabs_sorted) and stabs_sorted[idx] <= top:
            continue
        insort(stabs_sorted, bottom)
        out.append((x, bottom))
    return out


def ll2014(points, passes: int = 6) -> Cover:
    """Strip-and-stab cover; ``passes`` must be 1 or 6."""
    if passes not in (1, 6):
        raise ValueError("passes must be 1 or 6")
    pts = sorted(map(tuple, as_points(points).tolist()))
    n = len(pts)
    if n == 0:
        return []
    best: Cover | None = None
    for i in range(passes):
        right = pts[0][0] + i * SQRT3_OVER_6
        cover: Cover = []
        current = 0
        while current < n:
            index = current
            while current < n and pts[current][0] < right:
                current += 1
            if current > index:
                x_rl = right - HALF_SQRT3
                segs = []
                for j in range(index, current):
                    d = pts[j][0] - x_rl
                    half = (1.0 - d * d) ** 0.5
                    segs.append((pts[j][1] + half, pts[j][1] - half))
                cover.extend(stab_segments(x_rl, segs))
            if current < n:
                # smallest positive multiple of sqrt(3) putting the next
                # point strictly left of the strip's right boundary
                gap = pts[current][0] - right
                right += (int(gap / SQRT3) + 1) * SQRT3
        if best is None or len(cover) < len(best):
            best = cover
    return best if best is not None else []


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


def nearest_anchor_scan(anchors: list[Point], p: Point) -> int | None:
    """Linear-scan reference for the sliding-window query: nearest
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
