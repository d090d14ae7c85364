"""g1991 against the dict-and-sorted loop of ``classic_reference``.

``g1991`` sorts once by (strip, x), on 16-bit strip ranks where the strips
span fewer than 2^16 and on the strips themselves elsewhere. It sets in
numpy the forced squares, at a strip's first point and at each point more
than sqrt(2) right of the one before, and bisects from a forced point to
the next square's point only up to the next forced point; the reference
files every point under its strip and steps through all of them. The
covers must stay bit-equal: on 0 and 1 points, duplicates, equal x values
mixing -0.0 and 0.0, y exactly on strip edges k * sqrt(2) and y = -0.0,
points exactly sqrt(2) apart in x (the closed bound) and an ulp either
side of it, lines where every point is forced, runs of one point at both
ends of a strip, one point per strip (sorted and shuffled), strips just
either side of 2^16 apart, and coordinates up to just below 2^22. From
max |coordinate| = 2^22 on, where rounding could move a center more than
``verify_cover``'s tolerance from a point exactly 1 from it, both must
raise ValueError: at 2^22 and -2^22 in x and in y, at 1e300 and at
shifts of +-2^k, k = 22 ... 52.
"""

import math
from unittest import mock

import numpy as np
import pytest

from classic_reference import reference_g1991
from udcover import classic
from udcover.classic import g1991
from udcover.generators import gen_square
from udcover.geom import HALF_SQRT2, SQRT2, centers_array

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


def _assert_same(pts):
    try:
        expected = centers_array(reference_g1991(pts))
    except ValueError:
        with pytest.raises(ValueError, match="2\\^22"):
            g1991(pts)
        return
    got = g1991(pts)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _chain(x0: float, steps: int) -> list[float]:
    """x0, then each next x exactly sqrt(2) right of the one before, in
    float arithmetic: every point sits on the previous one's closed bound."""
    xs = [x0]
    for _ in range(steps):
        xs.append(xs[-1] + SQRT2)
    return xs


def _steps(x0: float, ulps: list[int]) -> list[float]:
    """x0, then each next x the given number of ulps off sqrt(2) right of
    the one before, in float arithmetic: from 1 up the next point is
    forced, at 0 or below it lies on or inside the previous bound."""
    xs = [x0]
    for k in ulps:
        x = xs[-1] + SQRT2
        for _ in range(abs(k)):
            x = math.nextafter(x, math.copysign(math.inf, k))
        xs.append(x)
    return xs


_BELOW_MAX = math.nextafter(2.0**22, 0.0)
_ABOVE_MIN = -_BELOW_MAX
_LINE = np.column_stack((np.zeros(2000), 2.0 * np.arange(2000)))

FIXED = {
    "empty": [],
    "one point": [(0.2, 0.3)],
    "one point at -0.0": [(-0.0, -0.0)],
    "duplicates": [(0.5, 0.5)] * 5 + [(3.0, 0.5)] * 3 + [(0.5, 0.5)] * 2,
    "duplicated square": np.tile(gen_square(200, 200.0, 3), (50, 1)),
    "signed zeros in x": [(0.0, 0.1), (-0.0, 0.2), (0.0, 0.3), (-0.0, 1.0),
                          (-0.0, -0.5), (0.0, -0.7), (SQRT2, 0.4), (-SQRT2, 0.4)],
    "y on strip edges": [(0.1 * k, k * SQRT2) for k in range(-5, 6)]
                        + [(0.3, -0.0), (0.3, 0.0), (0.7, -0.0)],
    "x sqrt(2) apart": [(0.0, 0.3), (SQRT2, 0.3), (0.1, 1.0), (0.1 + SQRT2, 1.0),
                        (0.2, 2.0), (math.nextafter(0.2 + SQRT2, math.inf), 2.0)],
    "chain on the closed bound": [(x, 0.5) for x in _chain(-3.7, 40)],
    "line with spacing 1.5, every point forced": [(1.5 * k - 30.0, 0.5) for k in range(200)],
    "gaps an ulp either side of the bound": [(x, 0.5) for x in _steps(-3.7, [1, -1] * 20)]
                                            + [(x, 2.0) for x in _steps(0.3, [-1, -1, 1, 1, 0] * 8)],
    "runs of one point at both ends of a strip": [(-9.0, 0.5), *((0.3 * k, 0.5) for k in range(30)),
                                                  (20.0, 0.5), (-9.0, 2.0), (-1.0, 2.0), (7.0, 2.0)],
    "a strip all forced next to a long run": [(1.5 * k, 0.5) for k in range(40)]
                                             + [(0.3 * k, 2.0) for k in range(200)]
                                             + [(2.0 * k, 3.5) for k in range(40)],
    "vertical line": _LINE,
    "vertical line shuffled": _LINE[np.random.default_rng(0).permutation(len(_LINE))],
    "vertical line reversed": _LINE[::-1],
    "huge coordinates": [(1e300, -1e300), (-1e300, 1e300), (1e300, 1e300)],
    # strips 2^16 - 1 apart still sort on 16-bit keys, 2^16 apart on floats
    "strips 2^16 - 1 apart": [(0.3, 0.1), (0.2, (2**16 - 1 + 0.5) * SQRT2),
                              (0.1, 0.2), (0.4, (2**16 - 1 + 0.5) * SQRT2)],
    "strips 2^16 apart": [(0.3, 0.1), (0.2, (2**16 + 0.5) * SQRT2),
                          (0.1, 0.2), (0.4, (2**16 + 0.5) * SQRT2)],
    # the bound is max |coordinate| = 2^22, read at either end of the x
    # order and in y; below it g1991 covers, from it on both raise
    "max |x| just below 2^22": [(x, 0.5) for x in _chain(2.0**22 - 40 * SQRT2, 38)],
    "max |x| at 2^22": [(x, 0.5) for x in _chain(2.0**22 - 40 * SQRT2, 40)],
    "min x just above -2^22": [(x, 0.5) for x in _chain(_ABOVE_MIN, 40)] + [(0.0, 2.0)],
    "min x at -2^22": [(x, 0.5) for x in _chain(-(2.0**22), 40)] + [(0.0, 2.0)],
    "max |y| just below 2^22": [(0.5, _BELOW_MAX), (0.7, -_BELOW_MAX), (0.1, 2.0)],
    "y at 2^22": [(0.5, 2.0**22), (0.7, 0.1)],
    "y at -2^22": [(0.5, -(2.0**22)), (0.7, 0.1)],
    "strips 2^16 apart near 2^21": [(0.3, 2.0**21), (0.2, 2.0**21 + 2**16 * SQRT2),
                                    (0.1, 2.0**21 + 2.0), (0.4, 2.0**21 + 2**16 * SQRT2)],
    "strips 2^16 apart at 2^52": [(0.3, 2.0**52), (0.2, 2.0**52 + 2**16 * SQRT2),
                                  (0.1, 2.0**52 + 2.0), (0.4, 2.0**52 + 2**16 * SQRT2)],
}


@pytest.mark.parametrize("name", FIXED)
def test_fixed_cases_match_the_loop(name):
    _assert_same(FIXED[name])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_shifts_match_the_loop(sign):
    # the loop's cover, bit for bit, up to 2^21 + 2000; ValueError from
    # 2^22 on
    pts = gen_square(2000, 2000.0, 5)
    for k in range(53):
        _assert_same(pts + sign * 2.0**k)


_COORD = st.one_of(
    st.integers(-8, 8).map(lambda k: k * SQRT2),
    st.sampled_from([0.0, -0.0, HALF_SQRT2, -HALF_SQRT2, 0.5, -0.5]),
    st.integers(-12, 12).map(float),
    st.floats(-12.0, 12.0),
    st.floats(-(2.0**21), 2.0**21),
)


@st.composite
def point_sets(draw):
    pts = draw(st.lists(st.tuples(_COORD, _COORD), max_size=60))
    if draw(st.booleans()):
        y = draw(_COORD)
        pts += [(x, y) for x in _chain(draw(_COORD), draw(st.integers(1, 8)))]
    if pts and draw(st.booleans()):
        pts += draw(st.lists(st.sampled_from(pts), max_size=10))
    arr = np.asarray(pts, np.float64).reshape(-1, 2)
    k = draw(st.integers(0, 20))
    arr = arr + draw(st.sampled_from([0.0, 2.0**k, -(2.0**k)]))
    if draw(st.booleans()):
        arr = arr[np.random.default_rng(draw(st.integers(0, 2**16))).permutation(len(arr))]
    return arr


@settings(max_examples=400, deadline=None)
@given(point_sets())
@example(np.array([[0.0, 0.0], [SQRT2, -0.0], [-0.0, SQRT2]]))
def test_random_sets_match_the_loop(pts):
    _assert_same(pts)


# rows whose each next x lies a few ulps either side of the walk's bound
# x + sqrt(2), or a plain gap right of the one before
_STEP = st.one_of(st.integers(-2, 2), st.sampled_from([0.0, 0.5, 1.5, 3.0]), st.floats(1.3, 1.5))


@st.composite
def spaced_rows(draw):
    pts = []
    for _ in range(draw(st.integers(1, 4))):
        y, x = draw(_COORD), draw(_COORD)
        for step in draw(st.lists(_STEP, max_size=16)):
            pts.append((x, y))
            x = _steps(x, [step])[-1] if isinstance(step, int) else x + step
        pts.append((x, y))
    arr = np.asarray(pts, np.float64)
    if draw(st.booleans()):
        arr = arr[np.random.default_rng(draw(st.integers(0, 2**16))).permutation(len(arr))]
    return arr


@settings(max_examples=300, deadline=None)
@given(spaced_rows())
def test_rows_spaced_around_sqrt2_match_the_loop(pts):
    _assert_same(pts)


def test_forced_squares_are_set_without_bisection(monkeypatch):
    # every point of the spacing-1.5 line is forced, so the walk bisects
    # nowhere; on the chain every point lies on the previous bound, and the
    # walk bisects from each square's point
    calls = mock.Mock(wraps=classic.bisect_right)
    monkeypatch.setattr(classic, "bisect_right", calls)
    g1991(FIXED["line with spacing 1.5, every point forced"])
    assert calls.call_count == 0
    g1991(FIXED["chain on the closed bound"])
    assert calls.call_count > 0
