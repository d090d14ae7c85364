"""Uniform-grid point index for "nearest neighbor within radius r" queries.

Buckets points by a square grid whose cell side equals the query radius,
so a 3x3 block of cells around the query is guaranteed to contain every
stored point within that radius.
"""

from __future__ import annotations

import math

from .geom import Point


class RadiusGrid:
    """Point index over a uniform grid with cell side ``cell_side``.

    Multiset semantics: the same coordinates may be stored more than
    once. Nearest-neighbor ties are broken by insertion order.
    Single-writer: queries and mutations must not interleave across
    threads.
    """

    def __init__(self, cell_side: float = 1.0):
        if not cell_side > 0.0:
            raise ValueError(f"cell side must be positive, got {cell_side}")
        self.cell_side = cell_side
        self._inv = 1.0 / cell_side
        self._cells: dict[tuple[int, int], list[tuple[float, float, int]]] = {}
        self._count = 0
        self._seq = 0

    def __len__(self) -> int:
        return self._count

    def _key(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor(x * self._inv), math.floor(y * self._inv))

    def insert(self, p: Point) -> None:
        x, y = p
        self._cells.setdefault(self._key(x, y), []).append((x, y, self._seq))
        self._seq += 1
        self._count += 1

    def remove(self, p: Point) -> bool:
        """Remove one stored copy whose coordinates equal p exactly."""
        x, y = p
        key = self._key(x, y)
        bucket = self._cells.get(key)
        if not bucket:
            return False
        for idx, (bx, by, _) in enumerate(bucket):
            if bx == x and by == y:
                del bucket[idx]
                if not bucket:
                    del self._cells[key]
                self._count -= 1
                return True
        return False

    def nearest_within(self, q: Point, r: float) -> tuple[Point, float] | None:
        """Nearest stored point at distance <= r from q (boundary
        inclusive), or None. Requires r <= cell_side so the 3x3 probe
        window is sufficient."""
        if not r <= self.cell_side:
            raise ValueError(f"query radius {r} exceeds grid cell side {self.cell_side}")
        qx, qy = q
        ci, cj = self._key(qx, qy)
        r_sq = r * r
        best_d = math.inf
        best_seq = -1
        best: Point | None = None
        cells = self._cells
        for i in (ci - 1, ci, ci + 1):
            for j in (cj - 1, cj, cj + 1):
                bucket = cells.get((i, j))
                if not bucket:
                    continue
                for x, y, seq in bucket:
                    dx = x - qx
                    dy = y - qy
                    d = dx * dx + dy * dy
                    if d <= r_sq and (d < best_d or (d == best_d and seq < best_seq)):
                        best_d = d
                        best_seq = seq
                        best = (x, y)
        if best is None:
            return None
        return best, best_d
