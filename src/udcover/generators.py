"""Seeded synthetic pointset generators.

All generators use numpy's PCG64 stream pinned by the seed, so identical
parameters reproduce bitwise-identical pointsets on any platform.
Results are returned as float64 arrays of shape (n, 2).
"""

from __future__ import annotations

import math

import numpy as np


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def gen_square(n: int, area: float, seed: int) -> np.ndarray:
    """n i.i.d. uniform points in [0, sqrt(area)) squared."""
    if not 0 < area < math.inf:
        raise ValueError(f"area must be positive and finite, got {area}")
    return _rng(seed).random((n, 2)) * math.sqrt(area)


def gen_disk(n: int, area: float, seed: int) -> np.ndarray:
    """n uniform points in the origin-centered disk of the given area
    (radial inverse-CDF sampling: r = R * sqrt(u))."""
    if not 0 < area < math.inf:
        raise ValueError(f"area must be positive and finite, got {area}")
    rng = _rng(seed)
    radius = math.sqrt(area / math.pi)
    r = radius * np.sqrt(rng.random(n))
    theta = rng.random(n) * (2.0 * math.pi)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


def gen_convex(n: int, area: float, seed: int) -> np.ndarray:
    """n points in convex position inside [0, sqrt(area)) squared, by the
    rising/falling-chain construction: random coordinate differences are
    split into two monotone chains, paired, sorted by angle, and chained
    into a convex polygon."""
    if not 0 < area < math.inf:
        raise ValueError(f"area must be positive and finite, got {area}")
    if n < 3:
        raise ValueError("convex generation needs n >= 3")
    rng = _rng(seed)

    def diffs(vals: np.ndarray) -> np.ndarray:
        vals = np.sort(vals)
        lo, hi = vals[0], vals[-1]
        mid = vals[1:-1]
        up = rng.random(n - 2) < 0.5
        chain_a = np.concatenate(([lo], mid[up], [hi]))
        chain_b = np.concatenate(([lo], mid[~up], [hi]))
        return np.concatenate([np.diff(chain_a), -np.diff(chain_b)])

    vx = diffs(rng.random(n))
    vy = diffs(rng.random(n))
    rng.shuffle(vy)
    order = np.argsort(np.arctan2(vy, vx))
    px = np.cumsum(vx[order])
    py = np.cumsum(vy[order])
    px -= px.min()
    py -= py.min()
    return np.stack([px, py], axis=1) * math.sqrt(area)


def gen_annulus(n: int, r_outer: float, r_inner: float, seed: int) -> np.ndarray:
    """n area-uniform points in the origin-centered annulus."""
    if not 0 < r_inner < r_outer < math.inf:
        raise ValueError(f"need 0 < r_inner < r_outer < inf, got r_inner={r_inner}, r_outer={r_outer}")
    rng = _rng(seed)
    r = np.sqrt(r_inner**2 + rng.random(n) * (r_outer**2 - r_inner**2))
    theta = rng.random(n) * (2.0 * math.pi)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
