"""Cover verification and an exact optimal solver for up to
MAX_EXACT_POINTS points.

The exact solver reduces to set cover over a finite candidate-center
set: every coverable subset admits a covering unit disk that either is
centered on a point or has two points on its boundary, so it suffices to
consider the input points plus, for each pair at distance <= 2, the two
unit-circle centers through that pair. The set cover is solved as a 0/1
integer program by HiGHS (``scipy.optimize.milp``), which is imported on
the first call, so that ``import udcover`` does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import Cover, as_points
from .gridindex import kd_tree, open_rows, witness_open_rows

MAX_EXACT_POINTS = 100

# slack for points lying exactly on a candidate circle's boundary
_COVER_TOL = 1e-12

# how far the tree's pair query reaches past the exact test
_MARGIN = 1e-9

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


def verify_cover(points, cover, eps: float = 1e-9, *, witness=None) -> VerifyReport:
    """Check that every point is within distance 1 of some center, with
    relative tolerance eps on the radius (finite, > -1). ``cover`` takes
    the points' contract (``as_points``): the ``(m, 2)`` array a solver
    returns, or a sequence of (x, y) pairs.

    Three steps settle the points. ``witness``, where given, is an integer
    array of shape ``(n,)`` naming for each point a center that may cover
    it, such as the one its solver put it in; each point is tested against
    that center alone (``gridindex.witness_open_rows``). The points it
    leaves open, or all of them, go to a cell grid over the centers
    (``gridindex.open_rows``), and those still open to a cKDTree query,
    which gives the report's exact distances. The first two steps settle
    a point only where some center is within the limit in any rounding,
    so the report is the same whatever the witness: a wrong one, or an
    index outside ``[0, m)``, costs time only. Raises ValueError for a
    witness of another shape or of a non-integer dtype."""
    if not (math.isfinite(eps) and eps > -1.0):
        raise ValueError(f"eps must be finite and > -1, got {eps}")
    pts = as_points(points)
    ctr = as_points(cover)
    if witness is not None:
        witness = np.asarray(witness)
        if witness.shape != (pts.shape[0],) or witness.dtype.kind not in "iu":
            raise ValueError(f"witness must be an integer array of shape ({pts.shape[0]},), "
                             f"got {witness.dtype} of shape {witness.shape}")
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

    if witness is None:
        open_ = open_rows(pts, ctr, limit, tree)
    else:
        open_ = witness_open_rows(pts, ctr, witness, limit)
        if len(open_):
            open_ = open_[open_rows(pts[open_], ctr, limit, tree)]
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


def candidate_centers(points) -> np.ndarray:
    """Input points plus the unit-circle centers through every pair at
    distance <= 2 (twice the midpoint at distance exactly 2), as an
    ``(m, 2)`` array."""
    pts = as_points(points)
    i, j = kd_tree(pts).query_pairs(2.0 + _MARGIN, output_type="ndarray").T
    d = pts[j] - pts[i]
    d_sq = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    # a pair closer than 1.5e-154 adds no centers: its squared distance is
    # subnormal, so h/|ab| would overflow; to a unit disk the pair is one
    # point, whose candidates are itself and its circles with third points
    near = (d_sq >= np.finfo(float).tiny) & (d_sq <= 4.0)
    d, d_sq = d[near], d_sq[near]
    mid = (pts[i[near]] + pts[j[near]]) / 2.0
    # offset perpendicular to the chord, length h/|ab|
    f = np.sqrt(np.maximum(1.0 - d_sq / 4.0, 0.0) / d_sq)
    off = np.column_stack((-d[:, 1] * f, d[:, 0] * f))
    return np.concatenate((pts, mid + off, mid - off))


def _coverage(pts: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """The (candidates, points) matrix of whether a unit disk at each
    candidate covers each point, dx**2 + dy**2 <= 1 + _COVER_TOL, by one
    broadcast test: at n <= MAX_EXACT_POINTS, at most 10^6 distances."""
    dx = pts[:, 0] - cands[:, 0, None]
    dy = pts[:, 1] - cands[:, 1, None]
    np.square(dx, out=dx)
    np.square(dy, out=dy)
    dx += dy
    return dx <= 1.0 + _COVER_TOL


def optimal_cover(points) -> OptResult:
    """Exact minimum cover over the candidate-center disks: set cover as
    a 0/1 integer program, solved by HiGHS, or the first candidate where
    one covers every point. Input size is capped at MAX_EXACT_POINTS.
    Raises RuntimeError if the solver fails or its centers do not cover
    the points."""
    pts = as_points(points)
    n = len(pts)
    if n == 0:
        return OptResult(0, np.empty((0, 2)))
    if n > MAX_EXACT_POINTS:
        raise ValueError(f"exact solver limited to {MAX_EXACT_POINTS} points, got {n}")
    cands = candidate_centers(pts)
    covers = _coverage(pts, cands)
    whole = np.flatnonzero(covers.all(axis=1))
    if len(whole):
        centers = cands[whole[:1]]
    else:
        from scipy.optimize import milp

        # one column per distinct covered set, the first candidate's
        first = np.sort(np.unique(np.packbits(covers, axis=1), axis=0, return_index=True)[1])
        cands, covers = cands[first], covers[first]
        m = len(cands)
        res = milp(np.ones(m), integrality=np.ones(m), bounds=(0, 1),
                   constraints=(covers.T, 1, np.inf))
        if res.status != 0:
            raise RuntimeError(f"exact solver failed: {res.message}")
        centers = cands[res.x > 0.5]
    if not verify_cover(pts, centers).valid:
        raise RuntimeError("exact solver returned centers that do not cover the points")
    return OptResult(len(centers), centers)
