"""Strip-greedy and online covering algorithms.

* ``g1991``    -- sqrt(2)-high strips, each covered left to right by
  sqrt(2) x sqrt(2) squares, a unit disk at each center: one sort by
  (strip, x); the squares at a strip's first point and at each point
  more than sqrt(2) past the one before are set in numpy, and a walk
  finds the others between them.
* ``ccfm1997`` -- online: each placed disk pre-positions six hexagonal
  candidate centers; an uncovered point promotes the nearest candidate
  within distance 1, or becomes a center itself.
* ``dgt2018``  -- online: a point becomes a center iff no existing
  center is within distance 1: ccfm1997 with no candidates.

Both run one engine (``_online``), given the pattern of candidate offsets:
``HEX_OFFSETS`` for ccfm1997, none for dgt2018. It probes a RadiusGrid
(cell side 1, 3x3 probe), so a center counts as within 1 of a point where
dx*dx + dy*dy <= 1 and their floor(x), floor(y) cells are at most 1 apart
in each axis: the probe never sees a center two cells away, even at a
rounded distance of exactly 1.

``_path`` estimates the mean degree, the number of other points within
the reach, once: from the bounding box, then from a random sample where
the box's estimate is low. Where that estimate is low, the engine
computes the cover in numpy dependency rounds over one cKDTree pair list
(``_rounds``). A point's decision depends only on the earlier points
within a reach: 1 + the pattern's radius, since a center or candidate
lies that far at most from the point that placed it. With no pattern the
cover is the first maximal independent set, in input order, of the graph
that joins two points on the probe test. Each round decides every
undecided point with no undecided earlier point within the reach. A center
that was made settles the later points its probe hits; a pair that fails
the probe only delays its later point. A ready point promotes its nearest
live candidate, ties going to the lower (owner, k), or activates. Rounds
that stall, as on chains in sorted input, hand the grid loop the rest of
the input from the first point still undecided, after it replays the
centers made before that point.

Where the estimate is moderate (``_BLOCK_DEGREE`` or more, from
8 * _FIRST_BLOCK points up), the rounds decide the rows in doubling
blocks, the first n/8 rows and then n/8, n/4 and n/2 more, rather than
all at once. Before a later block, ``open_rows`` drops the block's rows
that the centers placed so far cover; its pair list spans the rows that
made those centers and the block's open rows, so each list is far
shorter than the one over all rows. A stall is judged per block. For
ccfm1997 at 10^4 points the blocks break even at a sampled degree of about
10 and take a third off the rounds at density 1 (degree 19); the break-even
falls to about 6 at 10^5 points. dgt2018 takes the grid path first.

Where the estimate puts the mean degree high, every point goes to the grid
loop, in blocks that keep the input order. Where earlier centers covered
enough of the previous block, the numpy cell grid that ``verify_cover``
uses too (``gridindex.settling_centers``) drops the points that the
centers placed so far cover by a margin, or, for a block whose cell table
would overflow, its cKDTree query does; the rest go through
``CcfmState.take`` one by one.

Every path names, for each point, a center of the cover within 1 of it:
the rounds' made point whose center settled it, the filter's settling
center, or the grid loop's probe hit; ``verify_cover`` tests that witness
first (``cli._WITNESSED``).
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .geom import (Cover, HALF_SQRT2, HALF_SQRT3, Point, SQRT2, SQRT3, as_points,
                   bounded_points, centers_array, run_starts, stable_order, unsort)
from .gridindex import RadiusGrid, kd_tree, settling_centers

# Blocks double in size from _FIRST_BLOCK on, so a run filters O(log n)
# blocks, each against the centers of every earlier block. A block is
# filtered only if the filter dropped at least 1/_GATE of the previous
# block or, where that one was not filtered, at least 1/_GATE of it was
# covered on arrival, so sparse input (about one center per point) never
# builds a cell table. Timed, with the arrival rule alone, against the
# filter on for every block with a covered predecessor (31 alternating
# pairs, 2-core KVM guest): on 4 000 points at density 1 000 then 28 000
# at density 0.02, dgt2018 took 5.6% longer without the gate (the gate
# faster in 25 of 31), ccfm1997 1.7% (20 of 31); on gen_disk(500, 500, s),
# s = 1..40, the two were even. A first block of 32, 64 or 128 made
# ccfm1997 on those 40 instances 5-17% slower (11 pairs).
_FIRST_BLOCK = 256
_GATE = 4
# A pair count over a random sample of the points picks each input's path
# (see _path). Timed on a 2-core KVM guest for n = 500 to 16 000: 128
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
# 12.3: 11.4 ms against 10.4 ms). Sorted by (x, y) (library time, gc off,
# 3 interleaved pairs at 10^5 and 7 at 10^4), the rounds run to the end up
# to density 2 at 10^5 and are the faster (5.6: 94 ms against 176 ms), and
# stall from 2.5 on (6.9: 236 ms against 171 ms); at 10^4 they are the
# faster up to about 7 (6.6: 14 ms against 17 ms; 7.6, where they stall:
# 22 ms against 17 ms). Density 1 samples as 2.5-3.1.
_MIS_DEGREE = 7.0
# ccfm1997 takes the rounds below a sampled mean degree at reach 1 + sqrt(3)
# of _CCFM_DEGREE, scaled down by n / _CCFM_ROWS below _CCFM_ROWS rows,
# since each round has a fixed cost. Both paths timed on gen_disk points
# (7 runs, 2-core KVM guest): the rounds were the faster up to density 0.9
# (degree 21) at n = 500, 1.5 at 2 000, 1.7 at 4 000 and 2.0 (degree 47)
# at 10^4 and 4 * 10^4; density 1 is a degree of 23.4. Sorted by (x, y),
# the grid path wins further down: at 10^4 and density 5 the blocks took
# 8.4 ms against its 9.1 shuffled, but 31.4 against 19.9 ms sorted.
_CCFM_DEGREE = 45.0
_CCFM_ROWS = 3000
# From 8 * _FIRST_BLOCK rows up, a sampled mean degree of _BLOCK_DEGREE or
# more (below the grid path's) decides the rows in blocks (see _rounds).
# Both timed on gen_square points, 15 interleaved pairs (7-11 from 4 * 10^4
# up), process time, 2-core KVM guest, by sampled degree. ccfm1997 at
# n = 10^4: blocks +18% at 5.8, +3 to +7% at 7.8-9.6, -9% at 10.5 (15 of
# 15), -35% at 19 (density 1); the break-even falls with n, from about 19
# at 2 048 and 12 at 3 000-5 000 (+15% at 8.4) to 7 at 4 * 10^4 (-8% at
# 8.5) and 6 at 10^5 (+3% at 5.1, -16% at 7.0). dgt2018 at 10^4 lost 15% at
# 3.3 and gained 11-28% at 4.2-6.1, but its grid path starts at 7, so it
# never takes the blocks.
_BLOCK_DEGREE = 8.0
# A round costs about as much as the grid loop takes for _ROUND rows plus
# _STALL rows per pair left; the handoff replays a decided row in about
# _REPLAY of the time it probes one. Timed on a 2-core KVM guest, n = 500
# to 10^5: a round's fixed cost is 0.1-0.25 ms and its cost per pair left
# 10-20 ns, against 3-6 us a probe; a replay is a few RadiusGrid inserts
# where the row made a center and nothing where it did not. With these,
# the rounds stall after their first on sorted lines; for ccfm1997 within
# the first eight on squares and disks sorted by (x, y) at density 0.3 to
# 1.5, at 10^4 and 10^5 points; for dgt2018 on such squares from density
# 2.5 (10^5) or 3 (10^4) on, which take the grid path. They run to the end
# on shuffled input, for dgt2018 on sorted input up to density 2 and for
# ccfm1997 on sorted input at density 0.2.
_ROUND = 32
_STALL = 0.003
_REPLAY = 0.25
# Pairs are settled this many at a time, which bounds settle's temporary
# arrays: ccfm1997 probes a (pairs, 6) block of candidates.
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


def _path(xy: np.ndarray, reach: float, degree: float) -> str:
    """How ``_online`` covers xy: ``"grid"`` where a row of xy has, on
    average, at least ``degree`` other rows within ``reach``; else
    ``"blocks"`` where it has at least ``_BLOCK_DEGREE`` and there are
    8 * _FIRST_BLOCK rows or more; else ``"rounds"``. One estimate of that
    mean degree decides, the largest of up to three. The bounding box, w
    by h, costs no sample: evenly spread, the rows would have about
    pi reach^2 n / (w h) neighbours each, and bunched up, more; a side
    shorter than 2 reach counts as min(w, 2 reach), which a line or a thin
    strip, evenly spread, exceeds. Only where that is below ``degree`` is
    ``_spread_sample`` drawn: P sampled pairs within s * reach estimate
    2 P / m. Clusters finer than s escape that, but any two sampled rows
    are within ``reach`` as often as any two rows, so the Q such pairs
    estimate 2 (n - 1) Q / (m (m - 1)) whatever the layout, from
    Q >= _NEAR_PAIRS on, which keeps its noise out."""
    n = len(xy)
    if n < 2:
        return "rounds"
    # the box per column (xy.max(axis=0) is over ten times slower), in
    # Python floats, which overflow to inf without a warning
    x, y = xy[:, 0], xy[:, 1]
    w, h = float(x.max()) - float(x.min()), float(y.max()) - float(y.min())
    area = w * h
    box = math.pi / 4 * min(w, 2 * reach) * min(h, 2 * reach) * n
    estimate = box / area if area > 0 else 0.0
    if estimate < degree:
        sample, spread = _spread_sample(xy)
        m = len(sample)
        tree = kd_tree(sample)
        near = len(tree.query_pairs(reach, output_type="ndarray"))
        far = len(tree.query_pairs(reach * spread, output_type="ndarray"))
        estimate = max(estimate, 2 * far / m,
                       2 * (n - 1) * near / (m * (m - 1)) if near >= _NEAR_PAIRS else 0.0)
    if estimate >= degree:
        return "grid"
    return "blocks" if n >= 8 * _FIRST_BLOCK and estimate >= _BLOCK_DEGREE else "rounds"


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


def _pairs(xy: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (a, b) of rows of xy within r, a < b, as two arrays."""
    pairs = kd_tree(xy).query_pairs(r, output_type="ndarray")
    a, b = pairs.T
    return a.copy(), b.copy()


def _rounds(xy: np.ndarray, r: float, decide, settle, kept=None) -> int | None:
    """Decide the rows of xy in dependency rounds, as Blelloch, Fineman and
    Shun do for the greedy maximal independent set (SPAA 2012), over the
    pairs of rows within r = ``_tree_radius(xy, reach)``: a row's decision
    must depend only on those of earlier rows within ``reach``. Each round
    passes every undecided row with no undecided earlier row within r to
    ``decide(ready, undecided)``; ``settle(a, b, undecided)`` then applies
    the decisions of the rows a to the later rows b of their pairs, and
    clears ``undecided`` for any row that it decides; ``_online``'s also
    notes which row a decided it, for its witness. A row b may already be
    decided, and ``settle`` must leave it so.

    Given ``kept``, the rows are decided in blocks: the first n/8 rows,
    then n/8 more, n/4 and n/2. ``kept(start, stop)`` returns the rows that
    made a center before ``start`` and the rows of the block start:stop
    that their centers leave open, each ascending; the rest of the block is
    decided without making one, since an earlier center covers it. One pair
    list spans both. Its pairs whose later row is decided go, and one
    ``settle`` applies the earlier rows' decisions, before the block's
    rounds. ccfm1997 on 10^4 points at density 1 builds four lists of 1.8k
    to 19k pairs in place of one of 115k. ``_online`` passes ``kept`` where
    ``_path`` says so: from 8 * _FIRST_BLOCK rows and a sampled degree of
    ``_BLOCK_DEGREE`` up, whose comment gives the measured break-even.
    Without ``kept``, one block and its one pair list span all rows.

    Rounds on sorted input can decide only a few rows each. Where the
    rounds left at the rate of the last one would cost more than the grid
    loop on the block's rows still undecided and the replay of the rows
    before them, the rounds stop and return the first undecided row: every
    row before it is decided as the grid loop would decide it. Returns None
    where every row is decided."""
    n = len(xy)
    undecided = np.ones(n, bool)

    def settled(a, b):
        # settle the pairs of the rows decided since the last call, then
        # keep the pairs of two undecided rows
        fresh = ~undecided[a]
        fa, fb = a[fresh], b[fresh]
        for i in range(0, len(fa), _CHUNK):
            settle(fa[i:i + _CHUNK], fb[i:i + _CHUNK], undecided)
        keep = undecided[a] & undecided[b]
        return a[keep], b[keep]

    bounds = (0, n >> 3, n >> 2, n >> 1, n) if kept else (0, n)
    for start, stop in zip(bounds, bounds[1:]):
        if start == stop:
            continue
        if start:
            earlier, open_ = kept(start, stop)
            undecided[start:stop] = False
            undecided[open_] = True
            if not len(open_):
                continue
            rows = np.concatenate((earlier, open_))
            a, b = _pairs(xy[rows], r)
            keep = undecided[rows[b]]
            a, b = settled(rows[a[keep]], rows[b[keep]])
        else:
            a, b = _pairs(xy[:stop], r)
        left = int(np.count_nonzero(undecided[start:stop]))
        while left:
            cost = _ROUND + _STALL * len(a)
            blocked = np.zeros(stop - start, bool)
            blocked[b - start] = True
            ready = start + (undecided[start:stop] & ~blocked).nonzero()[0]
            decide(ready, undecided)
            undecided[ready] = False
            a, b = settled(a, b)
            decided = left - (left := int(np.count_nonzero(undecided[start:stop])))
            # left / decided rounds more, against the handoff
            if left and decided * (left + _REPLAY * (stop - left)) < left * cost:
                return int(undecided.argmax())
    return None


def g1991(points) -> Cover:
    """Strips are processed in increasing strip index, squares left to
    right; a square with left edge at the leftmost uncovered point
    covers every strip point within sqrt(2) of it in x (closed bound).
    Sorted by (strip, x), the forced squares, at a strip's first point
    and at each point more than sqrt(2) right of the one before, are set
    in numpy; between two of them the next square's point is found by
    bisection."""
    return _g1991(points)[0]


def _g1991(points):
    """``g1991``'s cover, and a callable that gives per point the index of
    its square's disk in it."""
    xy = bounded_points(points)
    order = np.argsort(xy[:, 0])
    strip = np.floor(xy[order, 1] / SQRT2)
    by_strip = stable_order(strip)  # each strip stays in x order
    order = order[by_strip]
    strip, x = strip[by_strip], xy[order, 0]
    # forced: a point past the bound of the one before, as the last
    # square's first point lies at or left of that one and rounding is
    # monotone. The point after a forced one is in its square unless
    # forced itself, so a stretch needs three points to walk
    head = run_starts(strip)
    head[1:] |= x[1:] > x[:-1] + SQRT2
    cuts = np.flatnonzero(head)
    ends = np.append(cuts[1:], len(x))
    walk = ends - cuts > 2
    xs = x.tolist()
    found = []
    for i, end in zip(cuts[walk].tolist(), ends[walk].tolist()):
        while (i := bisect_right(xs, xs[i] + SQRT2, i + 1, end)) < end:
            found.append(i)
    head[found] = True
    heads = np.flatnonzero(head)
    return (np.column_stack((x[heads] + HALF_SQRT2, (strip[heads] + 0.5) * SQRT2)),
            lambda: unsort(np.cumsum(head) - 1, order))


class CcfmState:
    """The grid loop's state: active (placed) and inactive (candidate)
    center indexes, kept disjoint; the cover, as the active centers in the
    order placed; and the ``offsets`` at which activating spawns candidates."""

    def __init__(self, offsets=HEX_OFFSETS):
        self.offsets = offsets
        self.active = RadiusGrid(1.0)
        self.inactive = RadiusGrid(1.0)
        self.active_order: list[Point] = []

    def activate(self, p: Point) -> None:
        self.active.insert(p)
        self.active_order.append(p)
        x, y = p
        # a loop, not a comprehension, which costs twice as much a call on
        # Python 3.11, where ccfm1997's grid path spawns about n/5 times
        for dx, dy in self.offsets:
            self.inactive.insert((x + dx, y + dy))

    def promote(self, q: Point) -> None:
        if not self.inactive.remove(q):
            raise RuntimeError(f"promoted center {q} is not a candidate")
        self.active.insert(q)
        self.active_order.append(q)

    def take(self, rows) -> list[int]:
        """Take the points [x, y] of rows in order: skip one where an
        active center covers it, else promote the nearest candidate within
        1, else activate the point. Returns, per row, the index in
        ``active_order`` of a center within 1 of it: the probe's hit, whose
        insertion number in ``active`` is that index, or the center the row
        makes. It takes a block, not a point: a call per point made dgt2018
        about 5% slower on a sorted line."""
        covered, candidate = self.active._nearest, self.inactive._nearest
        offsets, order = self.offsets, self.active_order
        by = []
        name = by.append
        for row in rows:
            p = (row[0], row[1])
            hit = covered(p, 1.0)
            if hit is not None:
                name(hit[2])
                continue
            name(len(order))
            # with no pattern there are no candidates to probe
            hit = offsets and candidate(p, 1.0)
            if hit:
                self.promote(hit[0])
            else:
                self.activate(p)
        return by

    def take_run(self, xy: np.ndarray) -> np.ndarray:
        """Take the rows of xy in order, in blocks that double in size from
        _FIRST_BLOCK, and return ``take``'s index per row. A block is
        filtered where the previous one, if filtered, had at least 1/_GATE
        of its rows dropped, or else had at least 1/_GATE covered on
        arrival: ``settling_centers`` at limit 1 first drops the block's
        rows that the centers placed so far cover, by its cell grid or, for
        a block whose cell table would overflow, by its cKDTree query, and
        names their centers."""
        by = np.empty(len(xy), np.intp)
        start, size = 0, _FIRST_BLOCK
        use_filter = False
        while start < len(xy):
            block = xy[start:start + size]
            stop = start + len(block)
            if use_filter:
                open_, who = settling_centers(block, centers_array(self.active_order), 1.0)
                who[open_] = self.take(block[open_].tolist())
                by[start:stop] = who
                covered = len(block) - len(open_)
            else:
                placed = len(self.active_order)
                by[start:stop] = self.take(block.tolist())
                covered = len(block) - (len(self.active_order) - placed)
            use_filter = covered * _GATE >= len(block)
            start, size = stop, size * 2
        return by


def _online(xy: np.ndarray, offsets, reach: float, degree: float):
    """The online cover of xy in row order, each activated center spawning
    candidates at ``offsets``, and its witness. Where ``_path`` puts the
    mean degree within ``reach`` at ``degree`` or more, every row goes
    through the grid loop; elsewhere ``_rounds`` decide the rows, in blocks
    where ``_path`` says so. Where they stall, the grid loop replays the
    centers made before the first undecided row and takes every row from it
    on, as the grid path does from row 0. A row that the blocks' filter
    drops is never made: the rounds decide it covered, and the loop, if it
    takes the row again, skips it. In the rounds, a row that an earlier
    row's center covers is skipped at once; a ready row promotes its
    nearest candidate by the key (d, owner row, k), which is the grid
    loop's insertion order, or else activates. A promoted candidate covers
    every row that could take it again, so no row does. An activated row's
    candidates are probed only against the later rows of its pairs, so a
    row with none spawns nothing. With no pattern, settle and decide stop
    after their first steps.

    The witness is a callable that gives per row the index in the cover
    of a center within 1 of it: the row's own, the made row's whose probe
    settled it in the rounds, the one the blocks' filter settled it by,
    or, in the grid loop, ``CcfmState.take``'s."""
    # the pair list holds the pairs within r, whose margin grows with the
    # coordinates (r = 2 at 2^48, 17 at 2^52), so the sample counts at r
    r = _tree_radius(xy, reach)
    path = _path(xy, r, degree)
    if path == "grid":
        state = CcfmState(offsets)
        by = state.take_run(xy)
        return centers_array(state.active_order), lambda: by
    n = len(xy)
    k = len(offsets)
    # gathers from a column copy are faster than from xy[:, 0]
    x, y = xy[:, 0].copy(), xy[:, 1].copy()
    # the center each made row placed: itself, unless it promoted a candidate
    cx, cy = x.copy(), y.copy()
    made = np.zeros(n, bool)
    covered_by = np.arange(n)          # a made row whose center covers the row
    spawned = np.zeros(n, bool)        # made by activating: the row itself
    pattern = np.array(offsets)
    # candidate edges (k * owner + j, row, d) not yet used, j the offset
    found = [(np.zeros(0, np.int64), np.zeros(0, np.intp), np.zeros(0))]

    def settle(a, b, undecided):
        s = made[a]
        a, b = a[s], b[s]
        _, hit = _probe(cx[a], cy[a], x[b], y[b])
        covered = b[hit]
        undecided[covered] = False
        covered_by[covered] = a[hit]
        if not k:
            return
        s = spawned[a] & undecided[b]
        a, b = a[s], b[s]
        # (pairs, k): the later row against the candidates of the earlier
        d, hit = _probe(x[a, None] + pattern[:, 0], y[a, None] + pattern[:, 1], x[b, None], y[b, None])
        i, j = np.nonzero(hit)
        found.append((k * a[i] + j, b[i], d[i, j]))

    def decide(ready, undecided):
        # each ready row activates, except those that promote a candidate
        made[ready] = spawned[ready] = True
        if not k:
            return
        cid, row, d = (np.concatenate(part) for part in zip(*found))
        isready = np.zeros(n, bool)
        isready[ready] = True
        at = isready[row]
        keep = ~at & undecided[row]
        found[:] = [(cid[keep], row[keep], d[keep])]
        cid, row, d = cid[at], row[at], d[at]
        order = np.lexsort((cid, d, row))
        cid, row = cid[order], row[order]
        first = run_starts(row)
        cid, row = cid[first], row[first]
        spawned[row] = False
        owner, j = np.divmod(cid, k)
        cx[row] = x[owner] + pattern[j, 0]
        cy[row] = y[owner] + pattern[j, 1]

    def kept(start, stop):
        # the rows that made a center so far, and the rows of start:stop
        # that their centers leave open; the others are covered by them
        earlier = made[:start].nonzero()[0]
        centers = np.column_stack((cx[earlier], cy[earlier]))
        open_, who = settling_centers(xy[start:stop], centers, 1.0)
        covered = who >= 0
        covered_by[start:stop][covered] = earlier[who[covered]]
        return earlier, start + open_

    first = _rounds(xy, r, decide, settle, kept if path == "blocks" else None)
    if first is None:
        # every row's covered_by made a center: its rank among them
        return np.column_stack((cx[made], cy[made])), lambda: (np.cumsum(made) - 1)[covered_by]
    state = CcfmState(offsets)
    rows = made[:first].nonzero()[0]
    for p, fresh in zip(zip(cx[rows].tolist(), cy[rows].tolist()), spawned[rows].tolist()):
        (state.activate if fresh else state.promote)(p)
    by = state.take_run(xy[first:])
    # the replay appends the centers of the rows before first in row order
    return centers_array(state.active_order), lambda: np.concatenate(
        ((np.cumsum(made[:first]) - 1)[covered_by[:first]], by))


def ccfm1997(points) -> Cover:
    """Online cover in input order: an uncovered point promotes the nearest
    candidate within 1, else becomes a center with six hexagonal
    candidates sqrt(3) away. Centers are listed as they were placed."""
    return _ccfm1997(points)[0]


def _ccfm1997(points):
    """``ccfm1997``'s cover, and a callable that gives per point the index
    of a center that covers it."""
    xy = as_points(points)
    return _online(xy, HEX_OFFSETS, 1.0 + SQRT3,
                   _CCFM_DEGREE * min(1.0, len(xy) / _CCFM_ROWS))


def dgt2018(points) -> Cover:
    """Online cover in input order: a point becomes a center iff no
    earlier center lies within 1 of it."""
    return _dgt2018(points)[0]


def _dgt2018(points):
    """``dgt2018``'s cover and witness, as ``_ccfm1997`` gives them."""
    return _online(as_points(points), (), 1.0, _MIS_DEGREE)
