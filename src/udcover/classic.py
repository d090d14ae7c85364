"""Strip-greedy and online covering algorithms.

* ``g1991``    -- partition into sqrt(2)-high horizontal strips, greedily
  cover each strip left-to-right with sqrt(2) x sqrt(2) squares, put a
  unit disk at each square center.
* ``ccfm1997`` -- online: each placed disk pre-positions six hexagonal
  candidate centers; an uncovered point promotes the nearest candidate
  within distance 1, or becomes a center itself.
* ``dgt2018``  -- online: a point becomes a center iff no existing
  center is within distance 1.

Both online solvers probe a RadiusGrid (cell side 1, 3x3 probe), so a
center counts as within 1 of a point where dx*dx + dy*dy <= 1 and their
floor(x), floor(y) cells are at most 1 apart in each axis: the probe never
sees a center two cells away, even at a rounded distance of exactly 1.

dgt2018's cover is therefore the first maximal independent set, in input
order, of the graph that joins two points on that test. Where a random
sample puts the mean degree low, it is computed in numpy rounds over one
cKDTree pair list: a point with no undecided earlier neighbour joins the
set and its later neighbours drop out. Rounds that stall, as on chains in
sorted input, hand the points still undecided to the probe loop.

Elsewhere the solvers take the points in blocks that keep the input order.
Where earlier centers covered enough of the previous block, one cKDTree
query over the centers placed so far drops the points they already cover;
the rest go through the RadiusGrid one by one, except, in ccfm1997, the
lone ones. A lone point has no other input point within 1 + sqrt(3), the
reach of ccfm1997, whose candidates lie sqrt(3) from the point that placed
them. Every probe of a lone point misses, so it becomes a center, and no
later probe finds it or its candidates; it goes straight into the cover.
One cKDTree query over all points finds them, where the bounding box and
a random sample both say that enough are lone.
"""

from __future__ import annotations

import math

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
# The same share gates the one tree that finds the lone points.
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
# Both paths timed on gen_square points, shuffled and sorted by x, at
# n = 500, 10^4 and 10^5: shuffled, the pair path is the faster one up to
# a sampled degree of about 12; sorted, where the rounds stall, up to about
# 7 at n = 10^5 (density 2.5, sampled 6.7-7.0: 0.46 s against 0.49 s;
# density 2.8, sampled 7.5-7.9: 0.55 s against 0.43 s). Density 1 samples
# as 2.7-3.3.
_MIS_DEGREE = 7.0
# The rounds end at the first one that decides fewer than _STALL * n rows:
# a round is one pass over the rows and the edges left. Timed on sorted
# input at densities 1 to 2.5, n = 10^4 and 10^5: 0.001 and 0.002 were the
# fastest, 0.01 up to 40% slower; at 0.001 a sorted line of 2 000 points
# 0.5 apart (3 rows a round) never stalls and takes three times as long.
_STALL = 0.002


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


def _dense(xy: np.ndarray, reach: float, degree: float) -> bool:
    """Whether a row of xy has, on average, at least ``degree`` other rows
    within ``reach``, as estimated from ``_spread_sample``: P sampled pairs
    within s * reach estimate 2 P / m. Clusters finer than s escape that
    estimate, so the Q sampled pairs within ``reach`` itself count too: any
    two sampled rows are that near as often as any two rows, so
    2 (n - 1) Q / (m (m - 1)) estimates the degree whatever the layout; it
    decides only where Q >= _NEAR_PAIRS, which keeps its noise out."""
    if len(xy) < 2:
        return False
    sample, spread = _spread_sample(xy)
    n, m = len(xy), len(sample)
    tree = cKDTree(sample, balanced_tree=False, compact_nodes=False)
    near = len(tree.query_pairs(reach, output_type="ndarray"))
    if near >= _NEAR_PAIRS and 2 * (n - 1) * near >= degree * m * (m - 1):
        return True
    return 2 * len(tree.query_pairs(reach * spread, output_type="ndarray")) >= degree * m


def _lone(xy: np.ndarray, reach: float) -> np.ndarray | None:
    """A mask of the rows of xy with no other row within ``reach``, or None
    where at most 1/_GATE of the rows look lone. The bounding box rules
    that out for free where it puts the share, exp(-pi reach^2 n / area)
    for evenly spread points, at or below 1/_GATE; the box cannot see
    clusters, so the rows of ``_spread_sample`` with no other sampled row
    within s * reach must be more than 1/_GATE of the sample, too. The
    tree's radius has a margin far above the rounding of either distance,
    so a row it calls lone is farther than ``reach`` from every other row
    in the solvers' own arithmetic, and candidates placed around it, too."""
    if len(xy) < 2:
        return None
    # per column (xy.max(axis=0) is over ten times slower), as Python
    # floats, which overflow to inf without a warning
    x, y = xy[:, 0], xy[:, 1]
    area = (float(x.max()) - float(x.min())) * (float(y.max()) - float(y.min()))
    if not area > 0 or math.exp(-math.pi * reach * reach * len(xy) / area) * _GATE <= 1:
        return None
    sample, spread = _spread_sample(xy)
    m = len(sample)
    pairs = cKDTree(sample, balanced_tree=False, compact_nodes=False).query_pairs(
        reach * spread, output_type="ndarray")
    if (m - np.count_nonzero(np.bincount(pairs.ravel(), minlength=m))) * _GATE <= m:
        return None
    r = _tree_radius(xy, reach)
    tree = cKDTree(xy, balanced_tree=False, compact_nodes=False)
    # k=[2]: only the second nearest row; the nearest is the row itself
    dist, _ = tree.query(xy, k=[2], distance_upper_bound=r)
    return dist[:, 0] > r


def _uncovered_blocks(xy: np.ndarray, centers: list[Point], lone: np.ndarray | None = None):
    """Yield the rows of xy, in order and as lists of [x, y], in runs,
    leaving out those that ``centers`` already covers and those that
    ``lone`` marks (see ``_lone``). ``centers`` is the caller's list of
    placed centers, which it grows by exactly one per yielded point that no
    center covers, before asking for the next run; each lone row's (x, y)
    is appended here, in its place in the input order."""
    start, size = 0, _FIRST_BLOCK
    use_tree = False
    while start < len(xy):
        block = xy[start:start + size]
        placed = len(centers)
        keep = slice(None)
        if use_tree:
            tree = cKDTree(centers_array(centers), balanced_tree=False, compact_nodes=False)
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
    centers: list[Point] = []
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
    return centers_array(centers)


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


def ccfm1997(points) -> Cover:
    state = CcfmState()
    xy = as_points(points)
    for block in _uncovered_blocks(xy, state.active_order, _lone(xy, 1.0 + SQRT3)):
        for row in block:
            p = (row[0], row[1])
            if state.active.nearest_within(p, 1.0) is not None:
                continue
            hit = state.inactive.nearest_within(p, 1.0)
            if hit is not None:
                state.promote(hit[0])
            else:
                state.activate(p)
    return centers_array(state.active_order)


def _first_independent_set(xy: np.ndarray, r: float) -> np.ndarray:
    """dgt2018's centers as a mask over the rows of xy: the first maximal
    independent set, in row order, of the graph that joins two rows where
    the RadiusGrid probe of either would find the other (see the module
    docstring), found among the pairs within r = ``_tree_radius(xy, 1)``.
    Each round adds every undecided row with no undecided earlier neighbour
    and drops its later neighbours; that is the greedy loop's choice, since
    every earlier neighbour of such a row is out."""
    n = len(xy)
    tree = cKDTree(xy, balanced_tree=False, compact_nodes=False)
    # query_pairs lists each pair once, as (i, j) with i < j
    a, b = tree.query_pairs(r, output_type="ndarray").T
    dx = xy[a, 0] - xy[b, 0]
    dy = xy[a, 1] - xy[b, 1]
    cells = np.floor(xy)
    edge = ((dx * dx + dy * dy <= 1.0)
            & (np.abs(cells[a, 0] - cells[b, 0]) <= 1.0)
            & (np.abs(cells[a, 1] - cells[b, 1]) <= 1.0))
    a, b = a[edge], b[edge]
    chosen = np.zeros(n, bool)
    undecided = np.ones(n, bool)
    left = n
    while left:
        blocked = np.zeros(n, bool)
        blocked[b] = True
        join = undecided & ~blocked
        chosen |= join
        undecided &= ~join
        undecided[b[join[a]]] = False
        # every edge kept joins two undecided rows
        kept = undecided[a] & undecided[b]
        a, b = a[kept], b[kept]
        decided = left
        left = np.count_nonzero(undecided)
        decided -= left
        if decided < _STALL * n:
            break
    # No undecided row has a neighbour in the set, so the rows left are a
    # problem of their own: the probe loop on them alone.
    rest = np.flatnonzero(undecided)
    centers = RadiusGrid(1.0)
    for i, (x, y) in zip(rest.tolist(), xy[rest].tolist()):
        p = (x, y)
        if centers.nearest_within(p, 1.0) is None:
            centers.insert(p)
            chosen[i] = True
    return chosen


def dgt2018(points) -> Cover:
    xy = as_points(points)
    # the pair list holds the pairs within r, whose margin grows with the
    # coordinates (r = 2 at 2^48, 17 at 2^52), so the sample counts at r
    r = _tree_radius(xy, 1.0)
    if not _dense(xy, r, _MIS_DEGREE):
        return xy[_first_independent_set(xy, r)]
    centers = RadiusGrid(1.0)
    out: list[Point] = []
    for block in _uncovered_blocks(xy, out):
        for row in block:
            p = (row[0], row[1])
            if centers.nearest_within(p, 1.0) is None:
                centers.insert(p)
                out.append(p)
    return centers_array(out)
