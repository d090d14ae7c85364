"""Plain-loop references for ``udcover.classic``'s online solvers: every
point, in input order, goes through a ``RadiusGrid`` probe. The solvers
compute dgt2018's cover, where the sampled degree is low, as the first
maximal independent set of the graph that the probe defines (within 1 and
cells at most 1 apart in each axis), in numpy rounds; elsewhere they skip
in numpy the points an earlier center already covers, and ccfm1997 puts
the lone points (no other point within reach) into the cover without a
probe. They must give the same covers bit for bit."""

from udcover.classic import CcfmState
from udcover.geom import Point, as_points
from udcover.gridindex import RadiusGrid


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
