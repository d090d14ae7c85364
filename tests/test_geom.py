import math

import numpy as np
import pytest

from reference import grid_disk_center
import udcover.geom as geom
from udcover.geom import HALF_SQRT2, INV_SQRT2, SQRT2, as_points, centers_array, key_order, stable_order


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


@pytest.mark.parametrize("size", [1, 255, 256, 257, 2**16 - 1, 2**16, 2**16 + 1, 2**46])
def test_key_order_sorts_and_radix_keeps_input_order(size):
    rng = np.random.default_rng(size % 997)
    keys = np.concatenate(([0, size - 1, size - 1, 0], rng.integers(0, size, 2000)))
    keys = rng.permutation(keys)
    order = key_order(keys, size)
    assert sorted(order.tolist()) == list(range(len(keys)))
    assert (np.diff(keys[order]) >= 0).all()
    if size <= 2**16:  # numpy's radix sort, stable
        assert order.tolist() == np.argsort(keys, kind="stable").tolist()


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
@pytest.mark.parametrize("span", [1, 255, 256, 257, 2**16 - 1, 2**16, 2**16 + 1])
@pytest.mark.parametrize("low", [0, -7, 3_000_000])
def test_stable_order_matches_a_stable_argsort_and_sorts_the_narrowest_keys(monkeypatch, span, low, dtype):
    # integers or integer-valued floats spanning exactly ``span`` values;
    # up to 2^8 of them take numpy's 8-bit radix pass, up to 2^16 its
    # 16-bit one
    sizes = []
    monkeypatch.setattr(geom, "key_order", lambda keys, size: sizes.append(size) or key_order(keys, size))
    rng = np.random.default_rng(span)
    values = low + rng.permutation(np.concatenate(([0, span - 1, 0], rng.integers(0, span, 3000))))
    values = values.astype(dtype)
    assert stable_order(values).tolist() == np.argsort(values, kind="stable").tolist()
    assert sizes == ([span] if span <= 2**16 else [])


@pytest.mark.parametrize("values", [
    # int64: max - min wraps in numpy, to -1 and to -2^63, which would
    # read as spans below 2^16
    np.array([2**63 - 1, -(2**63), 0, 2**63 - 1, -(2**63)]),
    np.array([2**62, -(2**62), 1, 2**62]),
    # floats: max - min overflows to inf
    np.array([1.7e308, -1.7e308, 0.0, 1.7e308, -1.7e308]),
    # no values: one empty key
    np.array([], np.int64),
    np.array([], np.float64),
])
def test_stable_order_reads_the_span_without_overflow(monkeypatch, values):
    sizes = []
    monkeypatch.setattr(geom, "key_order", lambda keys, size: sizes.append(size) or key_order(keys, size))
    assert stable_order(values).tolist() == np.argsort(values, kind="stable").tolist()
    assert sizes == ([1] if len(values) == 0 else [])
