import math

import numpy as np
import pytest

from udcover.generators import gen_annulus, gen_convex, gen_disk, gen_square


def test_square_bounds_and_shape():
    pts = gen_square(500, 100.0, seed=1)
    assert pts.shape == (500, 2)
    assert pts.min() >= 0.0
    assert pts.max() < 10.0


def test_square_deterministic():
    a = gen_square(100, 50.0, seed=7)
    b = gen_square(100, 50.0, seed=7)
    assert np.array_equal(a, b)
    c = gen_square(100, 50.0, seed=8)
    assert not np.array_equal(a, c)


def test_disk_radius_bound():
    pts = gen_disk(2000, math.pi * 9.0, seed=2)  # radius 3
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert r.max() < 3.0
    # area-uniform: mean squared radius is R^2/2
    assert abs(np.mean(r ** 2) - 4.5) < 4.5 * 0.05


def test_convex_needs_three_points():
    with pytest.raises(ValueError):
        gen_convex(2, 10.0, seed=0)


def test_convex_points_in_convex_position():
    from scipy.spatial import ConvexHull

    for seed in range(5):
        pts = gen_convex(40, 100.0, seed=seed)
        hull = ConvexHull(pts)
        assert len(hull.vertices) == 40


def test_convex_bounds():
    pts = gen_convex(60, 25.0, seed=3)
    assert pts.min() >= -1e-9
    assert pts.max() <= 5.0 + 1e-9


def test_annulus_radial_band():
    pts = gen_annulus(5000, 4.0, 2.0, seed=5)
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert r.min() >= 2.0
    assert r.max() < 4.0
    # area-uniform: median of r^2 is the midpoint of [r_in^2, r_out^2]
    assert abs(np.median(r ** 2) - 10.0) < 10.0 * 0.02


def test_annulus_validates_radii():
    with pytest.raises(ValueError):
        gen_annulus(10, 2.0, 2.0, seed=0)
    with pytest.raises(ValueError):
        gen_annulus(10, 1.0, 2.0, seed=0)
    with pytest.raises(ValueError):
        gen_annulus(10, 2.0, 0.0, seed=0)


def test_all_deterministic():
    assert np.array_equal(gen_disk(50, 10.0, 1), gen_disk(50, 10.0, 1))
    assert np.array_equal(gen_convex(50, 10.0, 1), gen_convex(50, 10.0, 1))
    assert np.array_equal(gen_annulus(50, 3.0, 1.0, 1), gen_annulus(50, 3.0, 1.0, 1))


@pytest.mark.parametrize("area", [math.nan, math.inf, 0.0, -1.0])
def test_square_rejects_area_that_is_not_positive_and_finite(area):
    with pytest.raises(ValueError, match="area must be positive and finite"):
        gen_square(2, area, seed=0)


@pytest.mark.parametrize("area", [math.nan, math.inf, 0.0, -1.0])
def test_disk_rejects_area_that_is_not_positive_and_finite(area):
    with pytest.raises(ValueError, match="area must be positive and finite"):
        gen_disk(2, area, seed=0)


@pytest.mark.parametrize("area", [math.nan, math.inf, 0.0, -1.0])
def test_convex_rejects_area_that_is_not_positive_and_finite(area):
    with pytest.raises(ValueError, match="area must be positive and finite"):
        gen_convex(3, area, seed=0)


@pytest.mark.parametrize("r_outer, r_inner", [
    (math.inf, 1.0), (math.nan, 1.0), (2.0, math.nan), (2.0, 0.0), (1.0, 2.0)])
def test_annulus_rejects_radii_that_are_not_ordered_and_finite(r_outer, r_inner):
    with pytest.raises(ValueError, match="r_inner=.*r_outer="):
        gen_annulus(2, r_outer, r_inner, seed=0)
