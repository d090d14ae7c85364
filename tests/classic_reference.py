"""Plain-loop references for ``udcover.classic``.

``reference_g1991`` files every point under its strip in a dict, sorts
each strip's points and steps through all of them; ``g1991`` sorts once in
numpy and does Python work only for the points that start a disk.

``reference_ccfm1997`` and ``reference_dgt2018`` send every point, in
input order, through a ``RadiusGrid`` probe. The online solvers compute
their covers, where the sampled degree is low, in numpy dependency rounds
over a pair list (dgt2018's as the first maximal independent set of the
graph that the probe defines: within 1 and cells at most 1 apart in each
axis), handing stalled rounds to the grid loop; elsewhere they skip in
numpy the points an earlier center already covers.

Each solver must give the same cover as its reference, bit for bit."""

import math

from udcover.classic import CcfmState
from udcover.geom import HALF_SQRT2, Point, SQRT2, as_points
from udcover.gridindex import RadiusGrid


def reference_g1991(points) -> list[Point]:
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
    return centers


def reference_ccfm1997(points) -> list[Point]:
    state = CcfmState()
    for xy in as_points(points).tolist():
        p = (xy[0], xy[1])
        if state.active.nearest_within(p, 1.0) is not None:
            continue
        if len(state.inactive) == 0:
            state.activate(p)
            continue
        hit = state.inactive.nearest_within(p, 1.0)
        if hit is not None:
            state.promote(hit[0])
        else:
            state.activate(p)
    return state.active_order


def reference_dgt2018(points) -> list[Point]:
    centers = RadiusGrid(1.0)
    out: list[Point] = []
    for xy in as_points(points).tolist():
        p = (xy[0], xy[1])
        if centers.nearest_within(p, 1.0) is None:
            centers.insert(p)
            out.append(p)
    return out
