"""Cover verification and an exact optimal solver for small instances.

The exact solver reduces to set cover over a finite candidate-center
set: every coverable subset admits a covering unit disk that either is
centered on a point or has two points on its boundary, so it suffices to
consider the input points plus, for each pair at distance <= 2, the two
unit-circle centers through that pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geom import Cover, Point, as_points, centers_array
from .gridindex import kd_tree, open_rows

MAX_EXACT_POINTS = 12

# slack for points lying exactly on a candidate circle's boundary
_COVER_TOL = 1e-12

# a few ulps above 1: verify_cover's bounded query reaches past its limit
_BOUND_MARGIN = 1.0 + 4 * np.finfo(np.float64).eps


@dataclass
class VerifyReport:
    valid: bool
    uncovered: list[tuple[int, float]]  # (point index, min dist_sq found)
    cover_size: int


@dataclass
class OptResult:
    size: int
    centers: Cover


def verify_cover(points, cover, eps: float = 1e-9) -> VerifyReport:
    """Check that every point is within distance 1 of some center, with
    relative tolerance eps on the radius (finite, > -1). ``cover`` takes
    the points' contract (``as_points``): the ``(m, 2)`` array a solver
    returns, or a sequence of (x, y) pairs."""
    if not (math.isfinite(eps) and eps > -1.0):
        raise ValueError(f"eps must be finite and > -1, got {eps}")
    pts = as_points(points)
    ctr = as_points(cover)
    if pts.shape[0] == 0:
        return VerifyReport(True, [], ctr.shape[0])
    if ctr.shape[0] == 0:
        uncovered = [(i, math.inf) for i in range(pts.shape[0])]
        return VerifyReport(False, uncovered, 0)
    limit = 1.0 + eps
    built = []

    def tree():
        """The centers' tree, built on first use, by open_rows or below."""
        if not built:
            built.append(kd_tree(ctr))
        return built[0]

    open_ = open_rows(pts, ctr, limit, tree)
    if not len(open_):
        return VerifyReport(True, [], ctr.shape[0])
    pts = pts[open_]
    tree = tree()
    # The bounded query gives the exact nearest distance of every point
    # with a center within the limit (the margin absorbs the rounding of
    # the tree's squared-distance test) and inf for most others; only the
    # points past the limit are queried again, unbounded, for the report.
    dist, _ = tree.query(pts, k=1, distance_upper_bound=limit * _BOUND_MARGIN)
    bad = np.flatnonzero(dist > limit)
    if len(bad):
        dist[bad] = tree.query(pts[bad], k=1)[0]
    uncovered = [(int(i), float(d) ** 2) for i, d in zip(open_[bad], dist[bad])]
    return VerifyReport(len(uncovered) == 0, uncovered, ctr.shape[0])


def candidate_centers(points) -> list[Point]:
    """Input points plus the unit-circle centers through every pair at
    distance <= 2 (midpoint only at distance exactly 2), deduplicated
    within 1e-12."""
    pts = list(map(tuple, as_points(points).tolist()))
    if not pts:
        raise ValueError("need at least one point")
    cands: list[Point] = list(pts)
    for (ax, ay), (bx, by) in itertools.combinations(pts, 2):
        dx = bx - ax
        dy = by - ay
        d_sq = dx * dx + dy * dy
        if d_sq > 4.0 or d_sq == 0.0:
            continue
        mx = (ax + bx) / 2.0
        my = (ay + by) / 2.0
        h_sq = 1.0 - d_sq / 4.0
        if h_sq <= 0.0:
            cands.append((mx, my))
            continue
        # offset perpendicular to the chord, length h/|ab|
        f = math.sqrt(h_sq / d_sq)
        ox = -dy * f
        oy = dx * f
        cands.append((mx + ox, my + oy))
        cands.append((mx - ox, my - oy))
    seen: dict[tuple[int, int], Point] = {}
    for c in cands:
        key = (round(c[0] * 1e12), round(c[1] * 1e12))
        if key not in seen:
            seen[key] = c
    return list(seen.values())


def _disk_masks(pts: list[Point], cands: list[Point]) -> tuple[list[int], list[Point]]:
    """Coverage bitmask per candidate, with dominated duplicates dropped."""
    masks: list[int] = []
    kept: list[Point] = []
    seen: set[int] = set()
    for cx, cy in cands:
        m = 0
        for idx, (px, py) in enumerate(pts):
            if (px - cx) ** 2 + (py - cy) ** 2 <= 1.0 + _COVER_TOL:
                m |= 1 << idx
        if m and m not in seen:
            seen.add(m)
            masks.append(m)
            kept.append((cx, cy))
    return masks, kept


def _greedy_cover(n: int, masks: list[int]) -> list[int]:
    full = (1 << n) - 1
    covered = 0
    chosen: list[int] = []
    while covered != full:
        best = max(range(len(masks)), key=lambda k: bin(masks[k] & ~covered).count("1"))
        chosen.append(best)
        covered |= masks[best]
    return chosen


def optimal_cover(points) -> OptResult:
    """Exact minimum cover over the candidate-center disks, by branch
    and bound on the lowest-index uncovered point. Points are ordered
    lexicographically; input size is capped at MAX_EXACT_POINTS."""
    pts = sorted(map(tuple, as_points(points).tolist()))
    n = len(pts)
    if n == 0:
        return OptResult(0, np.empty((0, 2)))
    if n > MAX_EXACT_POINTS:
        raise ValueError(f"exact solver limited to {MAX_EXACT_POINTS} points, got {n}")
    masks, kept = _disk_masks(pts, candidate_centers(pts))
    full = (1 << n) - 1
    # disks covering each point, for branching
    by_point: list[list[int]] = [[] for _ in range(n)]
    for k, m in enumerate(masks):
        for idx in range(n):
            if m >> idx & 1:
                by_point[idx].append(k)

    incumbent = _greedy_cover(n, masks)
    best_size = len(incumbent)
    best_sel = list(incumbent)

    def descend(covered: int, chosen: list[int]) -> None:
        nonlocal best_size, best_sel
        if covered == full:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_sel = list(chosen)
            return
        if len(chosen) + 1 >= best_size:
            return
        pivot = ((covered + 1) & ~covered).bit_length() - 1  # lowest uncovered bit
        for k in by_point[pivot]:
            add = masks[k] & ~covered
            if not add:
                continue
            chosen.append(k)
            descend(covered | masks[k], chosen)
            chosen.pop()

    descend(0, [])
    return OptResult(best_size, centers_array([kept[k] for k in best_sel]))

