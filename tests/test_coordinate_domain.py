"""Every solver returns a cover that ``verify_cover`` accepts or raises
ValueError: it never returns a cover that does not cover. Rounding grows
with the coordinates, so a solver whose centers sit exactly at a bound
(ll2014's stabs at a segment's end, fastcover++'s merged disks at a box
center) must leave room for it.

``g1991`` and the three fastcover solvers put a point at distance exactly
1 from a center and leave no room: they raise ValueError from max
|coordinate| = ``COORD_BOUND`` = 2^22 on, and below it they cover. The
first test shifts fixed sets by +-2^k, k = 20 ... 62; the hypothesis test
shifts by offsets that are not powers of two and puts points a few ulps
either side of cell corners and strip edges at those offsets."""

import math

import numpy as np
import pytest

from udcover import ALGORITHMS, gen_disk, gen_square, verify_cover
from udcover.geom import COORD_BOUND, SQRT2, SQRT3

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

OFFSETS = [sign * 2.0**k for k in range(20, 63) for sign in (1.0, -1.0)]
AXES = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
POINT_SETS = {
    "square density 1": gen_square(300, 300.0, 5),
    "disk density 5": gen_disk(300, 60.0, 6),
    # points exactly 1 apart, on strip and cell edges
    "lattice 1/2": np.array([(0.5 * i, 0.5 * j) for i in range(12) for j in range(12)]),
}
# the solvers whose centers leave no room, and so take only |coordinates|
# below COORD_BOUND
BOUNDED = ("g1991", "fastcover", "fastcover+", "fastcover++")


@pytest.mark.parametrize("name, points", [
    pytest.param(name, points, id=f"{name}, {points}")
    for name in ALGORITHMS for points in POINT_SETS])
def test_a_valid_cover_or_a_value_error_at_large_offsets(name, points):
    solver, pts = ALGORITHMS[name], POINT_SETS[points]
    invalid = []
    for offset in OFFSETS:
        for axes in AXES:
            shifted = pts + offset * np.array(axes)
            try:
                cover = solver(shifted)
            except ValueError:
                continue
            if not verify_cover(shifted, cover).valid:
                invalid.append((offset, axes))
    assert invalid == []


def _nudge(v: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


@st.composite
def _coord(draw, origin: float):
    """A coordinate near ``origin``: on a cell corner or strip edge
    (a multiple of sqrt(2) or of sqrt(3)), on a half lattice or anywhere
    within a few units, then nudged by up to 3 ulps."""
    kind = draw(st.sampled_from(["sqrt2", "sqrt3", "half", "free"]))
    k = draw(st.integers(-4, 4))
    if kind == "sqrt2":
        v = (math.floor(origin / SQRT2) + k) * SQRT2
    elif kind == "sqrt3":
        v = (math.floor(origin / SQRT3) + k) * SQRT3
    elif kind == "half":
        v = origin + 0.5 * k
    else:
        v = origin + draw(st.floats(-6.0, 6.0))
    return _nudge(v, draw(st.integers(-3, 3)))


@st.composite
def shifted_sets(draw):
    """Up to 40 points around an origin at an offset in x, in y or in
    both, of 2^16 to 2^62 times a mantissa in [1, 2), with duplicates."""
    mantissa = draw(st.floats(1.0, 2.0, exclude_max=True))
    offset = math.ldexp(mantissa, draw(st.integers(16, 62)))
    offset *= draw(st.sampled_from([1.0, -1.0]))
    ox, oy = (offset * a for a in draw(st.sampled_from(AXES)))
    pts = draw(st.lists(st.tuples(_coord(ox), _coord(oy)), min_size=1, max_size=40))
    pts += draw(st.lists(st.sampled_from(pts), max_size=5))
    return np.array(pts, dtype=np.float64)


@pytest.mark.parametrize("name", ALGORITHMS)
@settings(max_examples=150, deadline=None)
@given(pts=shifted_sets())
@example(pts=np.array([(10871393.408362702, 10871393.408362702)]))
@example(pts=np.array([(0.0, 25790274.517518576), (0.001, 25790274.517518576)]))
def test_a_valid_cover_or_a_value_error_off_powers_of_two(name, pts):
    solver = ALGORITHMS[name]
    if name in BOUNDED and np.abs(pts).max() >= COORD_BOUND:
        with pytest.raises(ValueError):
            solver(pts)
        return
    try:
        cover = solver(pts)
    except ValueError:
        assert name not in BOUNDED
        return
    assert verify_cover(pts, cover).valid


_TOP = math.nextafter(COORD_BOUND, 0.0)
# the highest cell corner and strip edge below the bound, and the points
# exactly 1 from its grid-disk's center there
_K = math.floor(_TOP / SQRT2)
_EDGES = [_nudge(_K * SQRT2, u) for u in range(-3, 4)] + [_TOP, math.nextafter(_TOP, 0.0)]


def _at_the_bound(sign_x: float, sign_y: float) -> np.ndarray:
    return np.array([(sign_x * x, sign_y * y) for x in _EDGES for y in _EDGES]
                    + [(sign_x * x, 0.5) for x in _EDGES]
                    + [(0.5, sign_y * y) for y in _EDGES])


@pytest.mark.parametrize("name", BOUNDED)
@pytest.mark.parametrize("sx, sy", [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)])
def test_bounded_solvers_cover_just_below_the_bound(name, sx, sy):
    pts = _at_the_bound(sx, sy)
    assert np.abs(pts).max() == _TOP
    assert verify_cover(pts, ALGORITHMS[name](pts)).valid


@pytest.mark.parametrize("name", BOUNDED)
@pytest.mark.parametrize("far", [COORD_BOUND, math.nextafter(COORD_BOUND, math.inf),
                                 3.0 * COORD_BOUND, 1e300])
def test_bounded_solvers_raise_from_the_bound_on(name, far):
    for p in ((far, 0.5), (-far, 0.5), (0.5, far), (0.5, -far), (far, far)):
        with pytest.raises(ValueError, match="2\\^22"):
            ALGORITHMS[name]([(0.5, 0.5), p])
