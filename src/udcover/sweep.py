"""Sorting-based covering algorithms.

* ``ll2014``   -- vertical strips of width sqrt(3); each point in a strip
  induces a vertical segment on the strip midline (the locus of midline
  centers covering it), and the fewest stabs of those segments are the
  disk centers. Six pass offsets of sqrt(3)/6 are tried and the smallest
  cover kept; ``passes=1`` is the one-pass variant. The stab loop runs
  three ways, chosen by bounding-box density with the same stabs: from
  2 points per unit area it visits only the segments whose top is a new
  low of their strip, the only ones that can open a stab; below 0.3 the
  segments whose top lies below the previous bottom are stabbed in numpy
  and the loop visits only the segments whose stab depends on it; in
  between it visits every segment.
* ``blms2017`` -- left-to-right sweep; a point farther than 2 from every
  anchor becomes an anchor and places four disks covering the right half
  of its radius-2 neighborhood. Disks that end up covering no point are
  dropped from the result. The sweep runs anchor by anchor: each new
  anchor marks, in bulk, the later points it dominates, found in a static
  grid of width-2 columns sorted by y, and the next anchor is the first
  unmarked point. From 2 points per unit of bounding-box area, where few
  points become anchors, each anchor's slices of that grid are bisected
  when the sweep reaches it; below, every point's slices are searched up
  front in numpy, and the sweep starts with only the points whose windows
  hold another point live: the others mark nothing, and each one that no
  anchor marks is an anchor, numbered after the sweep by sorted position.
  A point that rounding leaves outside its anchor's quad gets a disk of
  its own.

Both sweeps read the density the same way (``_box_area``), with the box's
sides floored so that a line or a thin band does not read as dense.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import count

import numpy as np

from .geom import (Cover, HALF_SQRT3, SQRT3, SQRT3_OVER_6, as_points, run_starts, stable_order,
                   unsort)

# Both sweeps choose their path once per call by the points per unit of
# bounding-box area. ll2014 floors the box's width at one strip (sqrt(3))
# and picks one of three stab loops:
# * from _DENSE up, the loop visits only the segments whose top is a new
#   low of their strip. On squares, against the plain loop (ll2014 alone,
#   medians of 25 runs, 2-core KVM guest), it breaks even near density 1.2
#   at n = 1e4, 1.7 at 1e5 and 2.2 at 1e3, is 6-9% faster at density
#   1.5-2 and 1e4 points, and takes half the time at density 50;
# * below _SPARSE, the forced stabs are set in numpy and the loop visits
#   only the segments whose stab depends on it. Against the plain loop
#   (medians of 21 interleaved pairs, same guest) it takes 62% less time
#   at density 0.02 and 37% less at 0.1 on 1e4-point squares, breaks even
#   near density 0.33 from n = 2e3 to 1e5 and near 0.2 at n = 500, and is
#   3-8% slower at n = 100;
# * in between, the plain loop visits every segment.
# blms2017 floors both sides at one column (2) and, from _DENSE up,
# searches each anchor's slices when the sweep reaches it rather than
# every point's up front. Against the per-point searches (blms2017 alone,
# medians of 21 interleaved runs, same guest) it is 3-6% slower at
# density 1 on squares of 1e4 and 1e5 points, even at 1.5, 5-6% faster at
# 2, 16% at 5 and 35% at 50; 2.8 times as slow at density 0.02; and 6-28%
# faster on lines 0.1 apart and a 0.01 x 100 band.
_DENSE = 2.0
_SPARSE = 0.3


def _box_area(width: float, height: float, min_width: float, min_height: float) -> float:
    """The bounding box's area, each side floored, so that a line or a
    thin band of points does not read as dense."""
    return max(width, min_width) * max(height, min_height)


def _stab_loop(n: int, width: float, height: float) -> str:
    """The stab loop ll2014 runs on n points in a width x height bounding
    box: "new lows", "forced" or "plain"."""
    area = _box_area(width, height, SQRT3, 0.0)
    if n >= _DENSE * area:
        return "new lows"
    if n >= _SPARSE * area:
        return "plain"
    return "forced"


def _stab(top: np.ndarray, bottom: np.ndarray) -> list[int]:
    """The greedy over segments sorted by (strip, -bottom), each strip's
    first top at -inf: the positions of the segments the last stab
    misses, each stabbed at its bottom."""
    stabs = []
    last = 0.0
    for s, t, b in zip(count(), top.tolist(), bottom.tolist()):
        if last > t:
            last = b
            stabs.append(s)
    return stabs


def ll2014(points, passes: int = 6) -> Cover:
    """Strip-and-stab cover; ``passes`` must be 1 or 6.

    Pass i's strips are [o + k*sqrt(3), o + (k+1)*sqrt(3)), with
    o = min x + i*sqrt(3)/6. Per strip, the points' midline segments are
    taken by bottom, highest first, and each one the last stab misses is
    stabbed at its bottom: the fewest stabs. Strips run left to right,
    stabs top down. Where max |y| is 2^22 or more, each segment shrinks
    inward by 2 ulp(max |y|), so that rounding cannot put a stab outside
    it. Raises ValueError at |y| >= 2^50, and where rounding leaves a
    point more than 1 from its strip's midline (|x| from about 2^51 to
    2^52).

    The loop that stabs runs in one of three ways (``_stab_loop``), with
    the same stabs. On dense input it visits only the segments whose top
    is a new low of their strip: the last stab lies at or below every
    earlier top of the strip, so no other segment can open a stab. On
    sparse input a strip's first segment, and a segment whose top is
    below the previous segment's bottom, open a stab whatever the loop's
    state; these forced stabs are set in numpy, and the loop visits the
    other segments and the forced ones just before them, whose stab they
    read. Otherwise the loop visits every segment.
    """
    return _ll2014(points, passes)[0]


def _ll2014(points, passes: int = 6):
    """``ll2014``'s cover, and a callable that gives per point the index in
    it of the stab of its segment: in the winning pass, the last stab at
    or before the segment's sorted position."""
    if passes not in (1, 6):
        raise ValueError("passes must be 1 or 6")
    xy = as_points(points)
    if len(xy) == 0:
        return np.empty((0, 2)), lambda: np.empty(0, dtype=np.intp)
    x, y = xy.T
    x_min = x.min()
    # y - half and y + half round outward by up to ulp(y) / 2, so from
    # top_y = 2^22 on each segment shrinks inward by 2 ulp(top_y), and
    # every stab then lies within 1 of the points it covers; from 2^50 the
    # margin would exceed a quarter
    y_min, y_max = float(y.min()), float(y.max())
    top_y = max(-y_min, y_max)
    margin = 0.0 if top_y < 2.0**22 else 2 * math.ulp(top_y)
    if margin > 0.25:
        raise ValueError("|y| is 2^50 or more: coordinates too large")
    loop = _stab_loop(len(xy), float(x.max()) - float(x_min), y_max - y_min)
    # the tops lie in [y_min, y_max + 1] up to rounding, so a power of two
    # over twice that range, times the strip rank, puts each strip's tops
    # below every earlier strip's, exactly before rounding
    span = math.ldexp(1.0, math.frexp(2.0 * (y_max - y_min) + 4.0)[1])
    best = None
    for i in range(passes):
        origin = x_min + i * SQRT3_OVER_6
        strip = np.floor((x - origin) / SQRT3)
        x_rl = origin + (strip + 0.5) * SQRT3
        d = x - x_rl
        half_sq = 1.0 - d * d
        # sqrt(half_sq) >= margin, so no segment shrinks past its middle
        if not half_sq.min() >= margin * margin:
            raise ValueError("a point lies more than 1 from its strip's "
                             "midline: coordinates too large")
        half = np.sqrt(half_sq) - margin
        bottom = y - half
        # order by (strip, -bottom): equal bottoms give equal stabs, so
        # an unstable sort by -bottom and a stable one by strip do, at
        # half the cost of a lexsort
        order = np.argsort(-bottom)
        order = order[stable_order(strip[order])]
        bottom = bottom[order]
        strip = strip[order]
        top = (y + half)[order]
        first = run_starts(strip)
        if loop == "plain":
            # a strip's first segment always opens a stab
            top[first] = -np.inf
            stabs = _stab(top, bottom)
        elif loop == "new lows":
            # a segment opens a stab only if its top is below every earlier
            # top of its strip: tops are at least their own bottoms, and
            # bottoms fall along the strip. One running minimum over the
            # offset tops finds these new lows; rounding is monotone, so
            # with <= a tie only keeps one more segment, and a strip's
            # first segment is always kept
            key = top - np.cumsum(first) * span
            keep = np.flatnonzero(key <= np.minimum.accumulate(key))
            top[first] = -np.inf
            stabs = keep[_stab(top[keep], bottom[keep])]
        else:
            # the last stab lies at or above the previous segment's bottom,
            # so a segment whose top is below it opens a stab, as does a
            # strip's first. Such a forced segment sets a last stab that
            # only an unforced next segment reads: the loop visits those
            # forced segments and the unforced ones
            forced = first.copy()
            forced[1:] |= top[1:] < bottom[:-1]
            top[forced] = -np.inf
            visit = ~forced
            visit[:-1] |= visit[1:]
            keep = np.flatnonzero(visit)
            forced[keep[_stab(top[keep], bottom[keep])]] = True
            stabs = np.flatnonzero(forced)
        if best is None or len(stabs) < len(best[0]):
            best = (stabs, order, x_rl[order[stabs]], bottom[stabs])
    stabs, order, cx, cy = best

    def witness():
        opens = np.zeros(len(order), dtype=np.intp)
        opens[stabs] = 1
        return unsort(opens.cumsum() - 1, order)

    return np.column_stack((cx, cy)), witness


def ll2014_1p(points) -> Cover:
    return ll2014(points, passes=1)


# Above this many candidates, an anchor marks them in numpy; at or below
# it, in a plain loop. The two break even near 100: in numpy alone the
# sweep takes 4-5 times as long on density-1 squares (windows of about 8
# points), in the plain loop alone 1.7 times as long on density-50 ones
# (about 400). Per-anchor windows count both slices together and mark
# them in one numpy call, 10% less time on the dense instance than a call
# per slice. Per-point windows count each slice on its own: the joint
# test costs their loop 1-3% at density 0.02-1 (blms2017 alone, with the
# sweep started at the busy points: sparse +2.1%, 3 of 41 interleaved
# pairs faster; squares at density 0.1 +2.7%, 5/21; uniform +0.9%,
# 17/41).
_NUMPY_CUTOFF = 96
# The sweep's bounds test dx ** 2 + dy ** 2, and the C pow behind ** is
# not always the rounded v * v: the two sums differ by a few ulps at
# most, so only a sum this close to a bound is tested with **.
_BAND = 1e-12


def _window_search(n: int, width: float, height: float) -> str:
    """Where blms2017's sweep finds the windows of n points in a width x
    height bounding box: "per anchor" or "per point"."""
    if n >= _DENSE * _box_area(width, height, 2.0, 2.0):
        return "per anchor"
    return "per point"


def _blms_sweep(points):
    """The sweep, anchor by anchor.

    Returns the points sorted by (x, y), the sorted positions of the
    anchors in creation order, per sorted point the index of its anchor
    (its own index for an anchor), and the sort order.

    A point's anchor is the nearest earlier anchor a in its window,
    ``not a.x < x - 2.0`` and ``y - 2.0 <= a.y <= y + 2.0``, by
    (dx*dx + dy*dy, creation order); the point becomes an anchor itself
    when there is none or ``dx ** 2 + dy ** 2 > 4.0``. Each new anchor
    marks the later points whose window it lies in, with its sorted
    position, so the next anchor is the first point left unmarked. Where
    the points are dense (``_window_search``), an anchor's slices are
    searched when the sweep reaches it; elsewhere every point's slices
    are searched up front. There a point whose windows hold no other
    point would mark nothing, and the sweep starts with it dead: it stops
    there only where a mark leaves it live, and sets it live afterwards
    if nothing marked it. The anchors are then the live points, and each
    is numbered by its rank among them, the order of creation.
    """
    x, y = as_points(points).T
    # a quicksort by x gives the stable (x, y) order when no two x are
    # equal (0.0 and -0.0 count as equal), at a tenth of the lexsort's cost
    order = np.argsort(x)
    xs = x[order]
    if (xs[1:] == xs[:-1]).any():
        order = np.lexsort((y, x))
        xs = x[order]
    ys = y[order]
    n = len(xs)
    if n == 0:
        return xs, ys, np.zeros(0, np.int64), np.zeros(0, np.int64), order
    # columns of width 2, numbered by rank; a later point in an anchor's
    # own column lies within 2 to its right, and the window reaches no
    # further than the next column
    col = np.floor(xs / 2.0)
    new_col = col[1:] != col[:-1]
    rank = np.zeros(n, np.int64)
    np.cumsum(new_col, out=rank[1:])
    # column r is sorted positions bounds[r] to bounds[r + 1] - 1, and
    # the same cell positions
    bounds = np.concatenate(([0], np.flatnonzero(new_col) + 1, [n]))
    # the points by (column, y) -- the cells -- so that an anchor's
    # window in a column is the slice between two exact searches: by y,
    # then stably by column rank (0.29 ms on dense, 1.29 by complex keys)
    by_y = np.argsort(ys)
    cell = by_y[stable_order(rank[by_y])]
    xc = xs[cell]
    yc = ys[cell]
    per_anchor = _window_search(n, float(xs[-1] - xs[0]),
                                float(ys.max() - ys.min())) == "per anchor"
    if per_anchor:
        # an anchor's slices are bisected when the sweep reaches it, within
        # a column, over the same rounded y + 2.0, y - 2.0 and x - 2.0 that
        # the per-point searches compare: the same slices
        m_up, m_down, m_x_end, m_bounds = map(
            memoryview, (yc + 2.0, yc - 2.0, xs - 2.0, bounds))
        live = bytearray(b"\x01") * n
    else:
        # complex (column, y) keys; integer-rank keys were no faster
        key = np.empty(n, np.complex128)
        key.real = rank[cell]
        key.imag = yc
        lo = np.searchsorted(key + 2j, key, "left")
        hi = np.searchsorted(key - 2j, key, "right")
        lo_next = np.searchsorted(key + 2j, key + 1.0, "left")
        hi_next = np.searchsorted(key - 2j, key + 1.0, "right")
        # skip the next column when no point of it is within 2 in x
        x_end = np.searchsorted(xs - 2.0, xs, "right")[cell]
        hi_next = np.where(x_end > bounds[1:][rank[cell]], hi_next, lo_next)
        cell_of = np.empty(n, np.int64)
        cell_of[cell] = np.arange(n)
        # whether a point's windows hold any point but itself
        busy = ((hi - lo > 1) | (hi_next > lo_next)).view(np.uint8)
        (m_cell_of, m_busy, m_lo, m_hi, m_lo_next, m_hi_next, m_end) = map(
            memoryview, (cell_of, busy, lo, hi, lo_next, hi_next, x_end))
        # a point that is not busy marks nothing, so the sweep starts with
        # only the busy points live; one that no anchor marks is set live
        # after the sweep
        live = bytearray(busy[cell_of])
    live_np = np.frombuffer(live, bool)
    # per cell, the squared distance to the nearest anchor so far, and per
    # sorted point, that anchor's sorted position
    best_d = np.full(n, np.inf)
    anchor = np.full(n, -1, np.int64)
    # memoryviews give Python scalars without converting whole arrays
    m_xs, m_ys, m_pos, m_x, m_y, m_d, m_a = map(
        memoryview, (xs, ys, cell, xc, yc, best_d, anchor))

    def mark(k, end, ax, ay, t):
        """The plain loop below, in numpy, over the cells t."""
        dx = ax - xc[t]
        dy = ay - yc[t]
        d = dx * dx + dy * dy
        pos = cell[t]
        upd = (d < best_d[t]) & (pos > k) & (pos < end)
        t = t[upd]
        d = d[upd]
        pos = pos[upd]
        best_d[t] = d
        anchor[pos] = k
        live_np[pos] = d > 4.0
        for u in np.flatnonzero(np.abs(d - 4.0) <= _BAND).tolist():
            j = int(pos[u])
            live[j] = (ax - xs.item(j)) ** 2 + (ay - ys.item(j)) ** 2 > 4.0

    near = 4.0 - _BAND
    k = live.find(1)
    while k >= 0:
        if per_anchor or m_busy[i := m_cell_of[k]]:
            ax = m_xs[k]
            ay = m_ys[k]
            # the later points of the window, in the own column and in the
            # next one, that lie within 2 in x: sorted positions k + 1 to
            # end - 1
            if per_anchor:
                end = bisect_right(m_x_end, ax, k + 1)
                c = bisect_right(m_bounds, k)
                s, e = m_bounds[c - 1], m_bounds[c]
                lo, hi = bisect_left(m_up, ay, s, e), bisect_right(m_down, ay, s, e)
                lo_next = hi_next = e
                # the next column, when a point of it is within 2 in x
                if end > e:
                    s, e = e, m_bounds[c + 1]
                    lo_next, hi_next = bisect_left(m_up, ay, s, e), bisect_right(m_down, ay, s, e)
                if hi - lo + hi_next - lo_next > _NUMPY_CUTOFF:
                    mark(k, end, ax, ay,
                         np.concatenate((np.arange(lo, hi), np.arange(lo_next, hi_next))))
                    windows = ()
                else:
                    windows = ((lo, hi), (lo_next, hi_next))
            else:
                end = m_end[i]
                windows = ((m_lo[i], m_hi[i]), (m_lo_next[i], m_hi_next[i]))
            for s, e in windows:
                if e - s > _NUMPY_CUTOFF:
                    mark(k, end, ax, ay, np.arange(s, e))
                    continue
                for t in range(s, e):
                    j = m_pos[t]
                    if k < j < end:
                        dx = ax - m_x[t]
                        dy = ay - m_y[t]
                        d = dx * dx + dy * dy
                        if d < m_d[t]:
                            m_d[t] = d
                            m_a[j] = k
                            live[j] = d > near and dx ** 2 + dy ** 2 > 4.0
        k = live.find(1, k + 1)
    # the points no anchor marked are anchors too; the live points are
    # then the anchors, which the sweep created in sorted order
    live_np[anchor < 0] = True
    anchors = np.flatnonzero(live_np)
    ids = np.arange(len(anchors))
    index = np.empty(n, np.int64)
    index[anchors] = ids
    # an unmarked point's -1 reads a stray entry, and as an anchor it then
    # takes its own id
    of = index[anchor]
    of[anchors] = ids
    return xs, ys, anchors, of, order


def _quads(xs, ys):
    """The four disks of anchors at (xs, ys), as (anchors, 4) arrays of
    center coordinates in quad order: center, right, upper, lower."""
    cx = np.stack((xs, xs + SQRT3, xs + HALF_SQRT3, xs + HALF_SQRT3), 1)
    cy = np.stack((ys, ys, ys + 1.5, ys - 1.5), 1)
    return cx, cy


def blms2017(points) -> Cover:
    """Sweep cover with empty-disk elimination: only disks that received
    at least one point survive.

    Each point goes to the first disk of its anchor's quad that holds it
    (``(cx - x) ** 2 + (cy - y) ** 2 <= 1.0``). The quad's outer edge
    touches the radius-2 circle around the anchor, straight above and
    below it and at 30 degrees above and below its right, and rounding
    can leave a point there outside all four disks. Such a point gets a
    disk at its own position; these follow the quad disks, in sweep
    order.
    """
    return _blms2017(points)[0]


def _blms2017(points):
    """``blms2017``'s cover, and a callable that gives per point the index
    in it of the quad disk that holds it, or of its own disk."""
    xs, ys, anchors, of, order = _blms_sweep(points)
    cx, cy = _quads(xs[anchors], ys[anchors])
    quad = np.full(len(xs), -1, np.int64)
    for i in range(4):
        todo = np.flatnonzero(quad < 0)
        dx = cx[of[todo], i] - xs[todo]
        dy = cy[of[todo], i] - ys[todo]
        d = dx * dx + dy * dy
        inside = d <= 1.0
        for t in np.flatnonzero(np.abs(d - 1.0) <= _BAND).tolist():
            inside[t] = dx.item(t) ** 2 + dy.item(t) ** 2 <= 1.0
        quad[todo[inside]] = i
    used = np.zeros(cx.shape, bool)
    held = quad >= 0
    used[of[held], quad[held]] = True
    own = ~held

    def witness():
        # the used disks are numbered in (anchor, quad) order, then the own ones
        at = np.where(held, used.cumsum().take(of * 4 + quad) - 1,
                      np.count_nonzero(used) + own.cumsum() - 1)
        return unsort(at, order)

    return np.column_stack((np.r_[cx[used], xs[own]], np.r_[cy[used], ys[own]])), witness


def blms2017_raw(points) -> Cover:
    """All four disks of every anchor, before empty-disk elimination and
    without the own-position disks ``blms2017`` may add."""
    xs, ys, anchors, _, _ = _blms_sweep(points)
    cx, cy = _quads(xs[anchors], ys[anchors])
    return np.column_stack((cx.ravel(), cy.ravel()))
