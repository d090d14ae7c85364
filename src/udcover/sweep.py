"""Sorting-based covering algorithms.

* ``ll2014``   -- vertical strips of width sqrt(3); each point in a strip
  induces a vertical segment on the strip midline (the locus of midline
  centers covering it), and the fewest stabs of those segments are the
  disk centers. Six pass offsets of sqrt(3)/6 are tried and the smallest
  cover kept; ``passes=1`` is the one-pass variant.
* ``blms2017`` -- left-to-right sweep; a point farther than 2 from every
  anchor becomes an anchor and places four disks covering the right half
  of its radius-2 neighborhood. Disks that end up covering no point are
  dropped from the result. The sweep runs anchor by anchor: each new
  anchor marks, in bulk, the later points it dominates, found in a static
  grid of width-2 columns sorted by y, and the next anchor is the first
  unmarked point. A point that rounding leaves outside its anchor's quad
  gets a disk of its own.
"""

from __future__ import annotations

from itertools import count

import numpy as np

from .geom import Cover, HALF_SQRT3, SQRT3, SQRT3_OVER_6, as_points


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
        return np.empty((0, 2))
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
    return np.column_stack(best)


def ll2014_1p(points) -> Cover:
    return ll2014(points, passes=1)


# Above this many candidates, an anchor marks a column's window in numpy;
# at or below it, in a plain loop. The two break even near 100: in numpy
# alone the sweep takes 4-5 times as long on density-1 squares (windows
# of about 8 points), in the plain loop alone 1.7 times as long on
# density-50 ones (about 400).
_NUMPY_CUTOFF = 96
# The sweep's bounds test dx ** 2 + dy ** 2, and the C pow behind ** is
# not always the rounded v * v: the two sums differ by a few ulps at
# most, so only a sum this close to a bound is tested with **.
_BAND = 1e-12


def _blms_sweep(points):
    """The sweep, anchor by anchor.

    Returns the points sorted by (x, y), the sorted positions of the
    anchors in creation order and, per sorted point, the index of its
    anchor (its own index for an anchor).

    A point's anchor is the nearest earlier anchor a in its window,
    ``not a.x < x - 2.0`` and ``y - 2.0 <= a.y <= y + 2.0``, by
    (dx*dx + dy*dy, creation order); the point becomes an anchor itself
    when there is none or ``dx ** 2 + dy ** 2 > 4.0``. Each new anchor
    marks the later points whose window it lies in, so the next anchor
    is the first point left unmarked.
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
        return xs, ys, np.zeros(0, np.int64), np.zeros(0, np.int64)
    # columns of width 2, numbered by rank; a later point in an anchor's
    # own column lies within 2 to its right, and the window reaches no
    # further than the next column
    col = np.floor(xs / 2.0)
    new_col = col[1:] != col[:-1]
    rank = np.r_[0.0, np.cumsum(new_col)]
    col_end = np.r_[np.flatnonzero(new_col) + 1, n]
    # the points by (column, y) -- the cells -- so that an anchor's
    # window in a column is the slice between two exact searches
    key = np.empty(n, np.complex128)
    key.real = rank
    key.imag = ys
    cell = np.argsort(key)
    key = key[cell]
    lo = np.searchsorted(key + 2j, key, "left")
    hi = np.searchsorted(key - 2j, key, "right")
    lo_next = np.searchsorted(key + 2j, key + 1.0, "left")
    hi_next = np.searchsorted(key - 2j, key + 1.0, "right")
    # skip the next column when no point of it is within 2 in x
    x_end = np.searchsorted(xs - 2.0, xs, "right")[cell]
    hi_next = np.where(x_end > col_end[key.real.astype(np.int64)],
                       hi_next, lo_next)
    cell_of = np.empty(n, np.int64)
    cell_of[cell] = np.arange(n)
    xc = xs[cell]
    yc = ys[cell]

    live = bytearray(b"\x01") * n
    live_np = np.frombuffer(live, np.uint8)
    best_d = np.full(n, np.inf)
    anchor = np.full(n, -1, np.int64)
    # whether a point's windows hold any point but itself
    busy = ((hi - lo > 1) | (hi_next > lo_next)).view(np.uint8)
    # memoryviews give Python scalars without converting whole arrays
    (m_cell_of, m_pos, m_x, m_y, m_d, m_a, m_busy,
     m_lo, m_hi, m_lo_next, m_hi_next, m_end) = map(
        memoryview, (cell_of, cell, xc, yc, best_d, anchor, busy,
                     lo, hi, lo_next, hi_next, x_end))

    def mark(k, end, a, ax, ay, s, e):
        """The plain loop below, in numpy, over cells[s:e]."""
        dx = ax - xc[s:e]
        dy = ay - yc[s:e]
        d = dx * dx + dy * dy
        pos = cell[s:e]
        upd = (d < best_d[s:e]) & (pos > k) & (pos < end)
        np.putmask(best_d[s:e], upd, d)
        np.putmask(anchor[s:e], upd, a)
        d = d[upd]
        pos = pos[upd]
        live_np[pos] = d > 4.0
        for t in np.flatnonzero(np.abs(d - 4.0) <= _BAND).tolist():
            j = int(pos[t])
            live[j] = (ax - xs.item(j)) ** 2 + (ay - ys.item(j)) ** 2 > 4.0

    near = 4.0 - _BAND
    anchors = []
    a = 0
    k = 0
    while k >= 0:
        anchors.append(k)
        i = m_cell_of[k]
        if m_busy[i]:
            ax = m_x[i]
            ay = m_y[i]
            # the later points of the window, in the own column and in the
            # next one, that lie within 2 in x: sorted positions k + 1 to
            # end - 1
            end = m_end[i]
            for s, e in ((m_lo[i], m_hi[i]), (m_lo_next[i], m_hi_next[i])):
                if e - s > _NUMPY_CUTOFF:
                    mark(k, end, a, ax, ay, s, e)
                    continue
                for t in range(s, e):
                    j = m_pos[t]
                    if k < j < end:
                        dx = ax - m_x[t]
                        dy = ay - m_y[t]
                        d = dx * dx + dy * dy
                        if d < m_d[t]:
                            m_d[t] = d
                            m_a[t] = a
                            live[j] = d > near and dx ** 2 + dy ** 2 > 4.0
        a += 1
        k = live.find(1, k + 1)
    of = np.empty(n, np.int64)
    of[cell] = anchor
    of[anchors] = np.arange(a)
    return xs, ys, np.array(anchors, np.int64), of


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
    xs, ys, anchors, of = _blms_sweep(points)
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
    return np.column_stack((np.r_[cx[used], xs[own]], np.r_[cy[used], ys[own]]))


def blms2017_raw(points) -> Cover:
    """All four disks of every anchor, before empty-disk elimination and
    without the own-position disks ``blms2017`` may add."""
    xs, ys, anchors, _ = _blms_sweep(points)
    cx, cy = _quads(xs[anchors], ys[anchors])
    return np.column_stack((cx.ravel(), cy.ravel()))
