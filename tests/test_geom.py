import math

import numpy as np
import pytest

from reference import grid_disk_center
from udcover.geom import HALF_SQRT2, INV_SQRT2, SQRT2, as_points, centers_array


def test_constants():
    assert SQRT2 == math.sqrt(2.0)
    assert abs(INV_SQRT2 - 1 / SQRT2) < 1e-15
    assert HALF_SQRT2 == SQRT2 / 2.0


def test_grid_disk_center_circumscribes_cell():
    for key in [(0, 0), (3, -2), (-5, 7)]:
        cx, cy = grid_disk_center(key)
        i, j = key
        corners = [
            (SQRT2 * i, SQRT2 * j),
            (SQRT2 * (i + 1), SQRT2 * j),
            (SQRT2 * i, SQRT2 * (j + 1)),
            (SQRT2 * (i + 1), SQRT2 * (j + 1)),
        ]
        for c in corners:
            assert math.dist((cx, cy), c) <= 1.0 + 1e-12


def test_grid_disk_center_value():
    cx, cy = grid_disk_center((0, 0))
    assert abs(cx - INV_SQRT2) < 1e-15
    assert abs(cy - INV_SQRT2) < 1e-15
    cx, cy = grid_disk_center((2, -1))
    assert abs(cx - (2 * SQRT2 + INV_SQRT2)) < 1e-12
    assert abs(cy - (-SQRT2 + INV_SQRT2)) < 1e-12


def test_centers_array_keeps_values_and_order():
    pairs = [(1.5, -0.0), (2.0, 3.0), (-1e300, 5e-324)]
    out = centers_array(pairs)
    assert out.dtype == np.float64 and out.flags.c_contiguous
    assert out.tobytes() == np.array(pairs).tobytes()
    assert centers_array([]).shape == (0, 2)


def test_as_points_returns_c_contiguous_float64():
    a = np.arange(6.0).reshape(3, 2)
    assert as_points(a) is a  # nothing copied
    for p in (np.asfortranarray(a), a.astype(np.float32), a.tolist(),
              [tuple(r) for r in a], [(int(x), int(y)) for x, y in a]):
        out = as_points(p)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert out.tolist() == a.tolist()
    for empty in ([], (), np.empty(0), np.empty((0, 2))):
        assert as_points(empty).shape == (0, 2)


@pytest.mark.parametrize("bad", [
    np.arange(6.0).reshape(2, 3), np.arange(6.0), np.empty((0, 3)),
    np.zeros((2, 2, 2)), [(1.0, 2.0, 3.0)], [[]], 1.0,
])
def test_as_points_rejects_other_shapes(bad):
    with pytest.raises(ValueError):
        as_points(bad)
