"""One input contract for every solver, the verifier and the writers:
an (n, 2) array or a sequence of (x, y) pairs of finite numbers. One
output contract for every cover: a new C-contiguous (m, 2) float64 array."""

import io
import math

import numpy as np
import pytest

from udcover import (
    ALGORITHMS,
    blms2017_raw,
    gen_square,
    optimal_cover,
    verify_cover,
    write_svg,
    write_xy,
)
from udcover.fastcover import build_disk_table, coalesce_pass


def _written(writer):
    def run(points):
        out = io.StringIO()
        writer(points, out)
        return out.getvalue()
    return run


TARGETS = {
    **{f"solver-{name}": solver for name, solver in ALGORITHMS.items()},
    "verify_cover": lambda points: verify_cover(points, [(1.0, 1.0)]),
    "optimal_cover": lambda points: optimal_cover(points).centers,
    "write_xy": _written(write_xy),
    "write_svg": _written(lambda points, out: write_svg(points, [(1.0, 1.0)], out)),
}

POINTS = gen_square(10, 9.0, 7)  # within the exact solver's limit


def _bits(result):
    """A cover as its shape and bytes, which tell -0.0 from 0.0; any other
    result as it is."""
    if isinstance(result, np.ndarray):
        return result.shape, result.tobytes()
    return result


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", [0, 1])
def test_non_finite_coordinate_raises(target, bad, axis):
    pts = POINTS.copy()
    pts[3, axis] = bad
    with pytest.raises(ValueError):
        TARGETS[target](pts)
    with pytest.raises(ValueError):
        TARGETS[target]([tuple(p) for p in pts])


@pytest.mark.parametrize("target", TARGETS)
def test_other_shapes_raise(target):
    for bad in (np.arange(6.0).reshape(2, 3), [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)]):
        with pytest.raises(ValueError):
            TARGETS[target](bad)


@pytest.mark.parametrize("target", TARGETS)
def test_empty_and_array_or_pairs_agree(target):
    run = TARGETS[target]
    assert _bits(run([])) == _bits(run(np.empty((0, 2))))
    from_array = _bits(run(POINTS))
    for pairs in ([tuple(p) for p in POINTS], POINTS.tolist()):
        assert _bits(run(pairs)) == from_array


COVERS = {
    **ALGORITHMS,
    "coalesce_pass": lambda points: coalesce_pass(build_disk_table(points)),
    "blms2017_raw": blms2017_raw,
    "optimal_cover": lambda points: optimal_cover(points).centers,
}


@pytest.mark.parametrize("name", COVERS)
def test_cover_is_a_new_float64_array(name):
    for points in ([], np.empty((0, 2)), POINTS[:1], POINTS, POINTS.tolist()):
        cover = COVERS[name](points)
        assert type(cover) is np.ndarray and cover.dtype == np.float64
        assert cover.flags.c_contiguous
        assert cover.ndim == 2 and cover.shape[1] == 2
        if len(points) == 0:
            assert cover.shape == (0, 2)
        if isinstance(points, np.ndarray):
            # a (0, 2) input shares no memory with anything, even itself
            assert cover is not points and cover.base is not points
            assert not np.shares_memory(cover, points)
