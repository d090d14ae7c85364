"""One input contract for every solver, the verifier and the writers:
an (n, 2) array or a sequence of (x, y) pairs of finite numbers."""

import io
import math

import numpy as np
import pytest

from udcover import (
    ALGORITHMS,
    gen_square,
    optimal_cover,
    verify_cover,
    write_svg,
    write_xy,
)


def _written(writer):
    def run(points):
        out = io.StringIO()
        writer(points, out)
        return out.getvalue()
    return run


TARGETS = {
    **{f"solver-{name}": solver for name, solver in ALGORITHMS.items()},
    "verify_cover": lambda points: verify_cover(points, [(1.0, 1.0)]),
    "optimal_cover": optimal_cover,
    "write_xy": _written(write_xy),
    "write_svg": _written(lambda points, out: write_svg(points, [(1.0, 1.0)], out)),
}

POINTS = gen_square(10, 9.0, 7)  # within the exact solver's limit


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
    assert run([]) == run(np.empty((0, 2)))
    from_array = run(POINTS)
    for pairs in ([tuple(p) for p in POINTS], POINTS.tolist()):
        assert run(pairs) == from_array
