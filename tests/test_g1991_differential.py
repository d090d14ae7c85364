"""g1991 against the dict-and-sorted loop of ``classic_reference``.

``g1991`` sorts once by (strip, x), on 16-bit strip ranks where the strips
span fewer than 2^16 and on the strips themselves elsewhere, and bisects
from each square's first point to the next; the reference files every
point under its strip and steps through all of them. The covers must stay
bit-equal: on 0 and 1 points, duplicates, equal x values mixing -0.0 and
0.0, y exactly on strip edges k * sqrt(2) and y = -0.0, points exactly
sqrt(2) apart in x (the closed bound), one point per strip (sorted and
shuffled), strips just either side of 2^16 apart, and shifts of +-2^k up
to 2^52, where the cover itself may be invalid.
"""

import math

import numpy as np
import pytest

from classic_reference import reference_g1991
from udcover.classic import g1991
from udcover.generators import gen_square
from udcover.geom import HALF_SQRT2, SQRT2, centers_array

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


def _assert_same(pts):
    got, expected = g1991(pts), centers_array(reference_g1991(pts))
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _chain(x0: float, steps: int) -> list[float]:
    """x0, then each next x exactly sqrt(2) right of the one before, in
    float arithmetic: every point sits on the previous one's closed bound."""
    xs = [x0]
    for _ in range(steps):
        xs.append(xs[-1] + SQRT2)
    return xs


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
    "vertical line": _LINE,
    "vertical line shuffled": _LINE[np.random.default_rng(0).permutation(len(_LINE))],
    "vertical line reversed": _LINE[::-1],
    "huge coordinates": [(1e300, -1e300), (-1e300, 1e300), (1e300, 1e300)],
    # strips 2^16 - 1 apart still sort on 16-bit keys, 2^16 apart on floats
    "strips 2^16 - 1 apart": [(0.3, 0.1), (0.2, (2**16 - 1 + 0.5) * SQRT2),
                              (0.1, 0.2), (0.4, (2**16 - 1 + 0.5) * SQRT2)],
    "strips 2^16 apart": [(0.3, 0.1), (0.2, (2**16 + 0.5) * SQRT2),
                          (0.1, 0.2), (0.4, (2**16 + 0.5) * SQRT2)],
    "strips 2^16 apart at 2^52": [(0.3, 2.0**52), (0.2, 2.0**52 + 2**16 * SQRT2),
                                  (0.1, 2.0**52 + 2.0), (0.4, 2.0**52 + 2**16 * SQRT2)],
}


@pytest.mark.parametrize("name", FIXED)
def test_fixed_cases_match_the_loop(name):
    _assert_same(FIXED[name])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_shifts_match_the_loop(sign):
    # ROADMAP item 1: g1991's cover is invalid at some of these shifts; the
    # rewrite must still give the loop's cover there, bit for bit
    pts = gen_square(2000, 2000.0, 5)
    for k in range(53):
        _assert_same(pts + sign * 2.0**k)


_COORD = st.one_of(
    st.integers(-8, 8).map(lambda k: k * SQRT2),
    st.sampled_from([0.0, -0.0, HALF_SQRT2, -HALF_SQRT2, 0.5, -0.5]),
    st.integers(-12, 12).map(float),
    st.floats(-12.0, 12.0),
    st.floats(-1e300, 1e300),
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
    k = draw(st.integers(0, 52))
    arr = arr + draw(st.sampled_from([0.0, 2.0**k, -(2.0**k)]))
    if draw(st.booleans()):
        arr = arr[np.random.default_rng(draw(st.integers(0, 2**16))).permutation(len(arr))]
    return arr


@settings(max_examples=400, deadline=None)
@given(point_sets())
@example(np.array([[0.0, 0.0], [SQRT2, -0.0], [-0.0, SQRT2]]))
def test_random_sets_match_the_loop(pts):
    _assert_same(pts)
