"""Plain-Python references for ``udcover.sweep``: the textbook stabbing
greedy, ll2014 built from it point by point and strip by strip (with the
same closed-form strips as the numpy solver), and the linear scan behind
blms2017's anchor index."""

import math

from udcover.geom import SQRT3, SQRT3_OVER_6, as_points


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
    best = None
    for i in range(passes):
        origin = x_min + i * SQRT3_OVER_6
        strips = {}
        for x, y in pts:
            k = math.floor((x - origin) / SQRT3)
            x_rl = origin + (k + 0.5) * SQRT3
            d = x - x_rl
            half = math.sqrt(1.0 - d * d)
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
