"""Every solver's witnessed form, which ``udcover cover`` runs, gives the
registered solver's cover and a complete witness, down to no points."""

import numpy as np
import pytest

from udcover import ALGORITHMS, cli, fastcover, gen_square
from udcover.geom import SQRT2

POINT_SETS = {
    "empty": lambda: [],
    "one": lambda: [(0.25, -3.5)],
    "random": lambda: gen_square(600, 400.0, 7),
}


@pytest.mark.parametrize("points", sorted(POINT_SETS))
@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_witnessed_form_matches_the_solver(name, points):
    pts = POINT_SETS[points]()
    cover, witness = cli._WITNESSED[name](pts)
    expected = ALGORITHMS[name](pts)
    assert cover.shape == expected.shape
    assert cover.tobytes() == expected.tobytes()
    w = witness()
    assert np.issubdtype(w.dtype, np.integer)
    assert w.shape == (len(pts),)
    assert ((w >= 0) & (w < len(cover))).all()


def test_cells_far_from_the_origin_sort_by_radix(monkeypatch):
    # the key box is the cells' own, wherever they lie: 71 x 71 cells
    # 10^6 from the origin still fit a 2^16-key radix sort
    sizes = []
    key_order = fastcover.key_order
    monkeypatch.setattr(fastcover, "key_order",
                        lambda keys, size: sizes.append(size) or key_order(keys, size))
    xy = gen_square(10000, 10000.0, 1) + 1e6
    cells = fastcover._Cells(np.floor(xy / SQRT2))
    assert sizes[0] <= 2**16
    assert len(cells.key) > 4000
