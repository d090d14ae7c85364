"""Strip-greedy and online covering algorithms.

* ``g1991``    -- sqrt(2)-high strips, each covered left to right by
  sqrt(2) x sqrt(2) squares, a unit disk at each center: one sort by
  (strip, x), then a walk over the points that start a square.
* ``ccfm1997`` -- online: each placed disk pre-positions six hexagonal
  candidate centers; an uncovered point promotes the nearest candidate
  within distance 1, or becomes a center itself.
* ``dgt2018``  -- online: a point becomes a center iff no existing
  center is within distance 1.

Both online solvers probe a RadiusGrid (cell side 1, 3x3 probe), so a
center counts as within 1 of a point where dx*dx + dy*dy <= 1 and their
floor(x), floor(y) cells are at most 1 apart in each axis: the probe never
sees a center two cells away, even at a rounded distance of exactly 1.

Where a random sample puts the mean degree low, both compute their cover
in numpy dependency rounds over one cKDTree pair list (``_rounds``). A
point's decision depends only on the earlier points within a reach: 1
for dgt2018, whose cover is the first maximal independent set, in input
order, of the graph that joins two points on that test; 1 + sqrt(3) for
ccfm1997, whose candidates lie sqrt(3) from the point that placed them.
Each round decides every undecided point with no undecided earlier point
within the reach. A ccfm1997 point is skipped as soon as a center made by
an earlier point covers it; a ready one promotes its nearest live
candidate, ties going to the lower (owner, k), or activates. Rounds that
stall, as on chains in sorted input, hand the points still undecided to
the grid loop, which replays the decided points in between (``_handoff``).
The first round runs on a prefix where the input looks sorted, so that a
stall shows before the whole pair list is built.

Elsewhere the solvers take the points in blocks that keep the input order.
Where earlier centers covered enough of the previous block, one cKDTree
query over the centers placed so far drops the points they already cover;
the rest go through the RadiusGrid one by one.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
from scipy.spatial import cKDTree

from .geom import Cover, HALF_SQRT2, HALF_SQRT3, Point, SQRT2, SQRT3, as_points, centers_array
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
# A pair count over a random sample of the points picks each input's path
# (see _dense). Timed on a 2-core KVM guest for n = 500 to 16 000: 128
# rows cost 0.10-0.18 ms a call, 256 rows 0.19-0.30 ms, next to 0.7 ms for
# dgt2018's whole solve of 500 points at density 1. Above n = 128^2 the
# sample grows as sqrt(n), which keeps up the sampled pairs within reach.
_SAMPLE = 128
# Those pairs decide only from this many up. Density-1 input (mean degree
# 3.2) gives 2.6 of them at n = 10 000, and 12 or more about twice in 10^5
# draws; 200 000 points in 1 000 clusters (mean degree 44, which the
# spread sample sees as 0.4) give about 20 and so take the grid path:
# 0.34 s there, 1.1 s and 3.5 times the memory on the pair path.
_NEAR_PAIRS = 12
# dgt2018 takes the pair path below this sampled mean degree at reach 1.
# Both paths timed with the stall rule below on gen_square points at
# density 1 to 5, shuffled and sorted by x, at n = 10^4 and 10^5 (process
# time, 2-core KVM guest): shuffled, the pair path is the faster one up to
# a sampled degree of about 12 (10.2: 14.4 ms against 16.6 ms at 10^4;
# 12.3: 11.4 ms against 10.4 ms). Sorted at 10^5, the rounds stall from
# density 2 on and cost within 2% of the grid loop; sorted at 10^4 they
# run to the end and are the faster up to about 7 (6.6: 22 ms against
# 41 ms; 7.6: 41 ms against 39 ms; 12.7: 44 ms against 30 ms). Density 1
# samples as 2.5-3.1.
_MIS_DEGREE = 7.0
# ccfm1997 takes the rounds below a sampled mean degree at reach 1 + sqrt(3)
# of _CCFM_DEGREE, scaled down by n / _CCFM_ROWS below _CCFM_ROWS rows,
# since each round has a fixed cost. Both paths timed on gen_disk points
# (7 runs, 2-core KVM guest): the rounds were the faster up to density 0.9
# (degree 21) at n = 500, 1.5 at 2 000, 1.7 at 4 000 and 2.0 (degree 47)
# at 10^4 and 4 * 10^4; density 1 is a degree of 23.4.
_CCFM_DEGREE = 45.0
_CCFM_ROWS = 3000
# A round costs about as much as the grid loop takes for _ROUND rows plus
# _STALL rows per pair left; the handoff replays a decided row in about
# _REPLAY of the time it probes one. Timed on a 2-core KVM guest, n = 500
# to 10^5: a round's fixed cost is 0.1-0.25 ms and its cost per pair left
# 10-20 ns, against 3-6 us a probe; a replay is a few RadiusGrid inserts
# where the row made a center and nothing where it did not. With these,
# the rounds stall after their first on sorted lines and on squares sorted
# by x at density 0.3 to 1.5 (ccfm1997), and run to the end on shuffled
# input and, for dgt2018, on sorted squares.
_ROUND = 32
_STALL = 0.003
_REPLAY = 0.25
# The first round runs on the first n/32 rows, at most _PREFIX_MAX, where
# they are _PREFIX_MIN or more and lie in a small part of the bounding box
# (see _ordered). The stall test scales the prefix's pairs up to all rows,
# so a few hundred rows show a stall. Timed with and without the prefix
# (7 interleaved runs, process time, 2-core KVM guest): ccfm1997 on
# gen_square(n, n, 5) sorted by (x, y) took 585 against 989 ms at
# n = 10^5 and 63 against 78 ms at 10^4, and 502 against 621 ms on a sorted
# line of 10^5 points; dgt2018 was 2-8% slower with it on those squares.
_PREFIX_MIN = 256
_PREFIX_MAX = 1024
# Pairs are filtered and settled this many at a time, which bounds the
# temporary arrays.
_CHUNK = 1 << 18
# The six candidate centers a new ccfm1997 disk spawns, as offsets from it,
# each sqrt(3) away. The row is the k of the (d, owner, k) tie order, since
# the grid loop inserts them in this order. -0.0, not 0.0: y + -0.0 is y
# for every y, -0.0 too.
HEX_OFFSETS = ((SQRT3, -0.0), (HALF_SQRT3, 1.5), (HALF_SQRT3, -1.5),
               (-HALF_SQRT3, 1.5), (-SQRT3, -0.0), (-HALF_SQRT3, -1.5))


def _tree_radius(xy: np.ndarray, reach: float) -> float:
    """``reach`` plus a margin far above the rounding of any distance
    between rows of xy, in the solvers' arithmetic or in a cKDTree's."""
    # over the whole array (five times faster than per column), as Python
    # floats, which overflow to inf without a warning; initial=0 leaves the
    # largest |coordinate| as it is and gives 0 for no rows
    top = max(-float(xy.min(initial=0.0)), float(xy.max(initial=0.0)))
    return reach + 1e-6 + 16 * math.ulp(top + reach)


def _spread_sample(xy: np.ndarray) -> tuple[np.ndarray, float]:
    """m rows of xy drawn at random, m = min(n, max(_SAMPLE, sqrt(n))), and
    s = sqrt((n - 1) / (m - 1)). Thinning n rows to m spreads them by s, so
    where the density is even on that scale, a sampled row has as many
    other sampled rows within s * r as a row of xy has rows within r. The
    draw does not depend on the input order, as a stride would (on input
    sorted by x, a stride seldom samples two points of one small cluster);
    its seed is fixed, so a run picks the same path every time. Needs
    n >= 2."""
    n = len(xy)
    m = min(n, max(_SAMPLE, math.isqrt(n)))
    sample = xy[np.random.default_rng(0).choice(n, m, replace=False)]
    return sample, math.sqrt((n - 1) / (m - 1))


def _extent(xy: np.ndarray) -> tuple[float, float]:
    """The width and height of the bounding box of the rows of xy (n >= 1),
    per column (xy.max(axis=0) is over ten times slower) and as Python
    floats, which overflow to inf without a warning."""
    x, y = xy[:, 0], xy[:, 1]
    return float(x.max()) - float(x.min()), float(y.max()) - float(y.min())


def _dense(xy: np.ndarray, reach: float, degree: float) -> bool:
    """Whether a row of xy has, on average, at least ``degree`` other rows
    within ``reach``, as estimated from ``_spread_sample``: P sampled pairs
    within s * reach estimate 2 P / m. Clusters finer than s escape that
    estimate, so the Q sampled pairs within ``reach`` itself count too: any
    two sampled rows are that near as often as any two rows, so
    2 (n - 1) Q / (m (m - 1)) estimates the degree whatever the layout; it
    decides only where Q >= _NEAR_PAIRS, which keeps its noise out. The
    bounding box, w by h, comes first and costs no sample: evenly spread
    over it, the rows would have about pi reach^2 n / (w h) neighbours each
    where both sides are 2 reach or more, and bunched up, more. A side
    shorter than 2 reach clips the disk, so the box counts it as pi/4 of
    the min(w, 2 reach) by min(h, 2 reach) rectangle: a line or a strip
    thinner than the reach, evenly spread, has more neighbours than that,
    not fewer."""
    n = len(xy)
    if n < 2:
        return False
    w, h = _extent(xy)
    near = math.pi / 4 * min(w, 2 * reach) * min(h, 2 * reach)
    if w * h > 0 and near * n >= degree * w * h:
        return True
    sample, spread = _spread_sample(xy)
    m = len(sample)
    tree = cKDTree(sample, balanced_tree=False, compact_nodes=False)
    near = len(tree.query_pairs(reach, output_type="ndarray"))
    if near >= _NEAR_PAIRS and 2 * (n - 1) * near >= degree * m * (m - 1):
        return True
    return 2 * len(tree.query_pairs(reach * spread, output_type="ndarray")) >= degree * m


def _uncovered_blocks(xy: np.ndarray, centers: list[Point]):
    """Yield the rows of xy, in order and as lists of [x, y], in runs,
    leaving out those that ``centers`` already covers. ``centers`` is the
    caller's list of placed centers, which it grows by exactly one per
    yielded point that no center covers, before asking for the next run."""
    start, size = 0, _FIRST_BLOCK
    use_tree = False
    while start < len(xy):
        block = xy[start:start + size]
        placed = len(centers)
        rows = block
        if use_tree:
            tree = cKDTree(centers_array(centers), balanced_tree=False, compact_nodes=False)
            dist, _ = tree.query(block, distance_upper_bound=_INSIDE)
            rows = block[dist >= _INSIDE]
        yield rows.tolist()
        uncovered = len(centers) - placed
        use_tree = (len(block) - uncovered) * _GATE >= len(block)
        start += size
        size *= 2


def _probe(ux, uy, vx, vy):
    """For centers u and points v, as coordinate arrays that broadcast
    together: d = dx*dx + dy*dy in the RadiusGrid probe's own arithmetic,
    and whether the probe of v finds u (d <= 1 and their floor cells at
    most 1 apart in each axis)."""
    dx = ux - vx
    dy = uy - vy
    d = dx * dx + dy * dy
    hit = ((d <= 1.0)
           & (np.abs(np.floor(ux) - np.floor(vx)) <= 1.0)
           & (np.abs(np.floor(uy) - np.floor(vy)) <= 1.0))
    return d, hit


def _pairs(xy: np.ndarray, r: float, pick) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (a, b) of rows of xy within r, a < b, as two arrays;
    where ``pick`` is given, only those for which pick(a, b) is true,
    picked in chunks to bound the temporary arrays."""
    pairs = cKDTree(xy, balanced_tree=False, compact_nodes=False).query_pairs(
        r, output_type="ndarray")
    a, b = pairs.T
    if pick is None:
        return a.copy(), b.copy()
    if len(a) > _CHUNK:
        keep = np.concatenate([pick(a[i:i + _CHUNK], b[i:i + _CHUNK])
                               for i in range(0, len(a), _CHUNK)])
    else:
        keep = pick(a, b)
    return a[keep], b[keep]


def _ordered(xy: np.ndarray, m: int) -> bool:
    """Whether the first m rows of xy span less than half the bounding
    box of all rows, in area or in extent: so they do in input sorted along
    a line or a curve, and they do not, but for chance, in input in random
    order, whose rounds do not stall."""
    (w, h), (wm, hm) = _extent(xy), _extent(xy[:m])
    return 2 * wm * hm < w * h or 2 * (wm + hm) < w + h


def _rounds(xy: np.ndarray, r: float, decide, settle, link=None) -> np.ndarray | None:
    """Decide the rows of xy in dependency rounds, as Blelloch, Fineman and
    Shun do for the greedy maximal independent set (SPAA 2012), over the
    pairs of rows within r: r must be such that a row's decision depends
    only on those of earlier rows within r. Each round passes every
    undecided row with no undecided earlier row within r to
    ``decide(ready, undecided)``; ``settle(a, b, undecided)`` then applies
    the decisions of the rows a to the undecided later rows b of their
    pairs, and clears ``undecided`` for any row that it decides.
    ``link(a, b)``, if given, keeps only the pairs it is true for.

    Rounds on sorted input can decide only a few rows each. Where the
    rounds left at the rate of the last one would cost more than the grid
    loop on the rows still undecided and the replay of the others (see
    ``_handoff``), the rounds stop and return the mask of the undecided
    rows. The first round runs on a prefix of at most n/32 rows, where it
    lies in a small part of the bounding box, so that such a stall shows
    before the pair list of all rows is built. Returns None where every row
    is decided."""
    n = len(xy)
    undecided = np.ones(n, bool)
    done = 0

    def pick(a, b):
        # pairs of undecided rows, and the pairs that apply the decisions
        # of the first round to the rows after its prefix
        keep = undecided[b] & (undecided[a] | (b >= done))
        return keep & link(a, b) if link is not None else keep

    def settled(a, b):
        # settle the pairs of the rows decided since the last call (every b
        # is undecided), then keep the pairs of two undecided rows
        fresh = ~undecided[a]
        fa, fb = a[fresh], b[fresh]
        for i in range(0, len(fa), _CHUNK):
            settle(fa[i:i + _CHUNK], fb[i:i + _CHUNK], undecided)
        keep = undecided[a] & undecided[b]
        return a[keep], b[keep]

    head = min(n >> 5, _PREFIX_MAX)
    left = n
    for m in ((head, n) if head >= _PREFIX_MIN and _ordered(xy, head) else (n,)):
        a, b = _pairs(xy[:m], r, pick if done else link)
        if done:
            a, b = settled(a, b)
        while left:
            # on a prefix, as if the pairs of all rows were there: on
            # sorted input, the rows a round decides do not grow with n
            cost = _ROUND + _STALL * len(a) * n / m
            blocked = np.zeros(m, bool)
            blocked[b] = True
            ready = (undecided[:m] & ~blocked).nonzero()[0]
            decide(ready, undecided)
            undecided[ready] = False
            a, b = settled(a, b)
            decided = left - (left := int(np.count_nonzero(undecided)))
            # left / decided rounds more, against the handoff
            if left and decided * (left + _REPLAY * (n - left)) < left * cost:
                return undecided
            if m < n:
                break
        done = m
    return None


def _handoff(xy: np.ndarray, left: np.ndarray, made: np.ndarray, replay, loop) -> None:
    """Finish a cover that the rounds stopped short of: ``loop(rows)``, the
    grid loop, takes the rows of xy that ``left`` marks, in runs of
    consecutive ones, and ``replay(rows)`` applies, in between and each in
    its place, the decision of every row that ``made`` marks as having made
    a center. Each probe then sees the state of the sequential loop: the
    rows before it, decided by either."""
    todo = np.flatnonzero(left)
    rows = np.flatnonzero(made)
    cut = np.searchsorted(rows, todo)  # the made rows before each row left
    runs = [0, *(np.flatnonzero(cut[1:] != cut[:-1]) + 1).tolist(), len(todo)]
    done = 0
    for i, j in zip(runs, runs[1:]):
        replay(rows[done:cut[i]])
        done = cut[i]
        first, last = int(todo[i]), int(todo[j - 1])
        # a view, not a copy, where the run's rows are consecutive
        loop(xy[first:last + 1] if last - first == j - 1 - i else xy[todo[i:j]])
    replay(rows[done:])


def g1991(points) -> Cover:
    """Strips are processed in increasing strip index, squares left to
    right; a square with left edge at the leftmost uncovered point
    covers every strip point within sqrt(2) of it in x (closed bound).
    Sorted by (strip, x), the next square's point is found by bisection."""
    xy = as_points(points)
    order = np.argsort(xy[:, 0])
    strip = np.floor(xy[order, 1] / SQRT2)
    # stable, so each strip stays in x order; 16-bit keys get a radix sort
    rank = strip - strip.min(initial=math.inf)
    key = rank.astype(np.uint16) if rank.max(initial=0.0) < 2**16 else strip
    by_strip = np.argsort(key, kind="stable")
    strip, x = strip[by_strip], xy[order[by_strip], 0]
    xs = x.tolist()
    heads = []
    cuts = [0, *(np.flatnonzero(strip[1:] != strip[:-1]) + 1).tolist(), len(xs)]
    for i, end in zip(cuts, cuts[1:]):
        while i < end:
            heads.append(i)
            i = bisect_right(xs, xs[i] + SQRT2, i + 1, end)
    return np.column_stack((x[heads] + HALF_SQRT2, (strip[heads] + 0.5) * SQRT2))


def ccfm_spawn_inactive(p: Point) -> list[Point]:
    """The six hexagonal candidate centers spawned around a new disk,
    each at distance sqrt(3) from it, in HEX_OFFSETS order."""
    x, y = p
    # a loop, not a comprehension, which costs twice as much a call on
    # Python 3.11, where ccfm1997's grid path spawns about n/5 times
    spawned = []
    for dx, dy in HEX_OFFSETS:
        spawned.append((x + dx, y + dy))
    return spawned


class CcfmState:
    """Active (placed) and inactive (candidate) center indexes; the two
    sets stay disjoint, and the final cover is the active set."""

    def __init__(self):
        self.active = RadiusGrid(1.0)
        self.inactive = RadiusGrid(1.0)
        self.active_order: list[Point] = []

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


def _ccfm_loop(xy: np.ndarray, state: CcfmState) -> None:
    for block in _uncovered_blocks(xy, state.active_order):
        for row in block:
            p = (row[0], row[1])
            if state.active.nearest_within(p, 1.0) is not None:
                continue
            hit = state.inactive.nearest_within(p, 1.0)
            if hit is not None:
                state.promote(hit[0])
            else:
                state.activate(p)


def _ccfm_rounds(xy: np.ndarray, r: float) -> Cover:
    """ccfm1997's cover by ``_rounds`` over the pairs within
    r = ``_tree_radius(xy, 1 + sqrt(3))``: every center that can cover a
    row, and every candidate that it can promote, comes from a row within
    1 + sqrt(3) of it. A row that an earlier row's center covers is skipped
    at once; a ready row promotes its nearest candidate by the key
    (d, owner row, k), which is the grid loop's insertion order, or else
    activates. A promoted candidate covers every row that could take it
    again, so no row does. An activated row's candidates are probed only
    against the later rows of its pairs, so a row with none spawns nothing.
    Where the rounds stall, ``_handoff`` finishes the cover with the grid
    loop."""
    n = len(xy)
    # gathers from a column copy are faster than from xy[:, 0]
    x, y = xy[:, 0].copy(), xy[:, 1].copy()
    offsets = np.array(HEX_OFFSETS)
    cx, cy = np.empty(n), np.empty(n)  # the center each row made, if any
    made = np.zeros(n, bool)
    spawned = np.zeros(n, bool)        # made by activating: the row itself
    # candidate edges (6 * owner + k, row, d) not yet used
    found = [(np.zeros(0, np.int64), np.zeros(0, np.intp), np.zeros(0))]

    def settle(a, b, undecided):
        s = made[a]
        a, b = a[s], b[s]
        _, hit = _probe(cx[a], cy[a], x[b], y[b])
        undecided[b[hit]] = False
        s = spawned[a] & undecided[b]
        a, b = a[s], b[s]
        # (pairs, 6): the later row against the six candidates of the earlier
        d, hit = _probe(x[a, None] + offsets[:, 0], y[a, None] + offsets[:, 1], x[b, None], y[b, None])
        i, k = np.nonzero(hit)
        found.append((6 * a[i] + k, b[i], d[i, k]))

    def decide(ready, undecided):
        cid, row, d = (np.concatenate(part) for part in zip(*found))
        isready = np.zeros(n, bool)
        isready[ready] = True
        at = isready[row]
        keep = ~at & undecided[row]
        found[:] = [(cid[keep], row[keep], d[keep])]
        cid, row, d = cid[at], row[at], d[at]
        order = np.lexsort((cid, d, row))
        cid, row = cid[order], row[order]
        first = np.ones(len(row), bool)
        first[1:] = row[1:] != row[:-1]
        cid, row = cid[first], row[first]
        # each ready row activates, except those that promote a candidate
        made[ready] = spawned[ready] = True
        cx[ready], cy[ready] = x[ready], y[ready]
        spawned[row] = False
        owner, k = np.divmod(cid, 6)
        cx[row] = x[owner] + offsets[k, 0]
        cy[row] = y[owner] + offsets[k, 1]

    left = _rounds(xy, r, decide, settle)
    if left is None:
        return np.column_stack((cx[made], cy[made]))
    state = CcfmState()

    def replay(rows):
        for p, fresh in zip(zip(cx[rows].tolist(), cy[rows].tolist()), spawned[rows].tolist()):
            (state.activate if fresh else state.promote)(p)

    _handoff(xy, left, made, replay, lambda rows: _ccfm_loop(rows, state))
    return centers_array(state.active_order)


def ccfm1997(points) -> Cover:
    xy = as_points(points)
    # as in dgt2018, the sample counts at the pair list's own radius
    r = _tree_radius(xy, 1.0 + SQRT3)
    if not _dense(xy, r, _CCFM_DEGREE * min(1.0, len(xy) / _CCFM_ROWS)):
        return _ccfm_rounds(xy, r)
    state = CcfmState()
    _ccfm_loop(xy, state)
    return centers_array(state.active_order)


def _dgt_loop(xy: np.ndarray, centers: RadiusGrid, out: list[Point]) -> None:
    for block in _uncovered_blocks(xy, out):
        for row in block:
            p = (row[0], row[1])
            if centers.nearest_within(p, 1.0) is None:
                centers.insert(p)
                out.append(p)


def dgt2018(points) -> Cover:
    """dgt2018's cover is the first maximal independent set, in row order,
    of the graph that joins two rows where the RadiusGrid probe of either
    would find the other (see the module docstring). Where the sampled
    degree is low, ``_rounds`` computes it over the pairs within
    r = ``_tree_radius(xy, 1)`` that pass the probe test: a ready row joins
    the set and its later neighbours drop out, since every earlier
    neighbour of a ready row is out. Where the rounds stall, ``_handoff``
    finishes the cover with the probe loop."""
    xy = as_points(points)
    centers = RadiusGrid(1.0)
    out: list[Point] = []
    # the pair list holds the pairs within r, whose margin grows with the
    # coordinates (r = 2 at 2^48, 17 at 2^52), so the sample counts at r
    r = _tree_radius(xy, 1.0)
    if _dense(xy, r, _MIS_DEGREE):
        _dgt_loop(xy, centers, out)
        return centers_array(out)
    # gathers from a column copy are faster than from xy[:, 0]
    x, y = xy[:, 0].copy(), xy[:, 1].copy()
    chosen = np.zeros(len(xy), bool)

    def decide(ready, undecided):
        chosen[ready] = True

    def settle(a, b, undecided):
        undecided[b[chosen[a]]] = False

    def link(a, b):
        return _probe(x[a], y[a], x[b], y[b])[1]

    left = _rounds(xy, r, decide, settle, link)
    if left is None:
        return xy[chosen]

    def replay(rows):
        for p in zip(x[rows].tolist(), y[rows].tolist()):
            centers.insert(p)
            out.append(p)

    _handoff(xy, left, chosen, replay, lambda rows: _dgt_loop(rows, centers, out))
    return centers_array(out)
