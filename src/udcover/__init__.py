"""Unit disk cover: approximation algorithms, verifier, exact oracle,
generators, and a benchmark harness.

Every solver takes an (n, 2) array or a sequence of (x, y) pairs with
finite coordinates (``geom.as_points``) and returns the centers of closed
unit disks that cover the input, as a new C-contiguous (m, 2) float64
array; (0, 2) for no points.
"""

from __future__ import annotations

from .classic import ccfm1997, dgt2018, g1991
from .fastcover import fast_cover, fast_cover_plus, fast_cover_pp
from .generators import gen_annulus, gen_convex, gen_disk, gen_square
from .oracle import (
    MAX_EXACT_POINTS,
    OptResult,
    VerifyReport,
    optimal_cover,
    verify_cover,
)
from .pointio import (
    BenchRecord,
    ParseError,
    read_tsplib,
    read_xy,
    write_csv,
    write_svg,
    write_xy,
)
from .sweep import blms2017, blms2017_raw, ll2014, ll2014_1p

__version__ = "0.1.0"

# Registry used by the CLI; iteration order is the presentation order.
ALGORITHMS = {
    "g1991": g1991,
    "ccfm1997": ccfm1997,
    "ll2014": ll2014,
    "ll2014-1p": ll2014_1p,
    "blms2017": blms2017,
    "dgt2018": dgt2018,
    "fastcover": fast_cover,
    "fastcover+": fast_cover_plus,
    "fastcover++": fast_cover_pp,
}

GENERATORS = {
    "square": gen_square,
    "disk": gen_disk,
    "convex": gen_convex,
    "annulus": gen_annulus,
}

__all__ = [
    "ALGORITHMS",
    "GENERATORS",
    "MAX_EXACT_POINTS",
    "BenchRecord",
    "OptResult",
    "ParseError",
    "VerifyReport",
    "blms2017",
    "blms2017_raw",
    "ccfm1997",
    "dgt2018",
    "fast_cover",
    "fast_cover_plus",
    "fast_cover_pp",
    "g1991",
    "gen_annulus",
    "gen_convex",
    "gen_disk",
    "gen_square",
    "ll2014",
    "ll2014_1p",
    "optimal_cover",
    "read_tsplib",
    "read_xy",
    "verify_cover",
    "write_csv",
    "write_svg",
    "write_xy",
]
