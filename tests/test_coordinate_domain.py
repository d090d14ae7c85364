"""Every solver, at offsets of +-2^k, k = 20 ... 44, in x, in y or in both,
returns a cover that ``verify_cover`` accepts or raises ValueError: it
never returns a cover that does not cover. Rounding grows with the
coordinates, so a solver whose centers sit exactly at a bound (ll2014's
stabs at a segment's end, fastcover++'s merged disks at a box center) must
leave room for it."""

import numpy as np
import pytest

from udcover import ALGORITHMS, gen_disk, gen_square, verify_cover

OFFSETS = [sign * 2.0**k for k in range(20, 45) for sign in (1.0, -1.0)]
AXES = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
POINT_SETS = {
    "square density 1": gen_square(300, 300.0, 5),
    "disk density 5": gen_disk(300, 60.0, 6),
    # points exactly 1 apart, on strip and cell edges
    "lattice 1/2": np.array([(0.5 * i, 0.5 * j) for i in range(12) for j in range(12)]),
}


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
