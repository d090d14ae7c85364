"""Pointset readers and result writers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .geom import Cover, as_points


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class BenchRecord:
    algorithm: str
    instance: str
    n: int
    cover_size: int
    wall_time_s: float
    seed: int
    trial: int


CSV_HEADER = "algorithm,instance,n,cover_size,wall_time_s,seed,trial"


# Printable ASCII except '#', plus space, tab and newline. In text made of
# these bytes alone, lines end only at '\n' and tokens split only at spaces
# and tabs, for np.loadtxt and the line loop alike. Anything else (a comment,
# '\r', '\x0c', non-ASCII) goes to the loop.
_PLAIN_BYTES = bytes(range(0x21, 0x7F)).replace(b"#", b"") + b" \t\n"


def read_xy(stream: IO[str]) -> np.ndarray:
    """One point per nonempty line: two whitespace-separated numbers.
    Lines starting with '#' are skipped.

    Plain input is parsed in one vectorised pass; any other input, and any
    input that pass rejects, goes through the line loop, which raises the
    ParseError."""
    lines = stream.readlines()
    pts = _read_xy_plain(lines)
    return pts if pts is not None else _read_xy_lines(lines)


def _read_xy_plain(lines: list[str]) -> np.ndarray | None:
    """The points, or None when the line loop must decide: on empty,
    commented, ragged, non-finite or not plain input."""
    text = "".join(lines)
    # np.loadtxt warns on input with no data; the loop returns no points
    if not text or text.isspace() or text.encode().translate(None, _PLAIN_BYTES):
        return None
    try:
        pts = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if pts.shape[1] != 2 or not np.isfinite(pts).all():
        return None
    return pts


def _read_xy_lines(lines: Iterable[str]) -> np.ndarray:
    rows: list[tuple[float, float]] = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise ParseError(f"expected two numbers, got {text!r}", lineno)
        rows.append(_coords(parts, text, lineno))
    return np.array(rows, dtype=np.float64).reshape(-1, 2)


def _coords(parts: list[str], text: str, lineno: int) -> tuple[float, float]:
    """The last two fields of row ``text`` as finite floats."""
    try:
        x = float(parts[-2])
        y = float(parts[-1])
    except ValueError:
        raise ParseError(f"malformed number in {text!r}", lineno) from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ParseError(f"non-finite coordinate in {text!r}", lineno)
    return x, y


def write_xy(points, stream: IO[str]) -> None:
    for x, y in as_points(points).tolist():
        stream.write(f"{x!r} {y!r}\n")


def read_tsplib(stream: IO[str]) -> np.ndarray:
    """Minimal TSPLIB reader: NODE_COORD_SECTION with "index x y" rows,
    terminated by EOF (sentinel or end of stream). DIMENSION, when
    present, must match the row count."""
    dimension: int | None = None
    in_coords = False
    rows: list[tuple[float, float]] = []
    for lineno, line in enumerate(stream, start=1):
        text = line.strip()
        if not text:
            continue
        if not in_coords:
            if text.upper().startswith("DIMENSION"):
                try:
                    dimension = int(text.split(":")[-1].strip())
                except ValueError:
                    raise ParseError(f"bad DIMENSION header {text!r}", lineno) from None
            elif text.upper() == "NODE_COORD_SECTION":
                in_coords = True
            continue
        if text.upper() == "EOF":
            break
        parts = text.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'index x y', got {text!r}", lineno)
        rows.append(_coords(parts, text, lineno))
    if not in_coords:
        raise ParseError("missing NODE_COORD_SECTION")
    if dimension is not None and dimension != len(rows):
        raise ParseError(f"DIMENSION is {dimension} but found {len(rows)} coordinate rows")
    return np.array(rows, dtype=np.float64).reshape(-1, 2)


def write_csv(records: Iterable[BenchRecord], stream: IO[str]) -> None:
    """Fixed-header CSV, times with 6 decimals."""
    stream.write(CSV_HEADER + "\n")
    for r in records:
        stream.write(
            f"{r.algorithm},{r.instance},{r.n},{r.cover_size},"
            f"{r.wall_time_s:.6f},{r.seed},{r.trial}\n"
        )


def write_svg(points, cover: Cover, stream: IO[str], point_radius: float = 0.05) -> None:
    """Render points as dots and unit disks as translucent circles.

    The y-axis is flipped so the drawing matches mathematical
    orientation; the viewBox encloses all points and disk extents with a
    1-unit margin.
    """
    pts = as_points(points)
    ctr = as_points(cover)
    xs: list[float] = []
    ys: list[float] = []
    if pts.size:
        xs += [pts[:, 0].min(), pts[:, 0].max()]
        ys += [pts[:, 1].min(), pts[:, 1].max()]
    if ctr.size:
        xs += [ctr[:, 0].min() - 1.0, ctr[:, 0].max() + 1.0]
        ys += [ctr[:, 1].min() - 1.0, ctr[:, 1].max() + 1.0]
    if not xs:
        xs = [0.0, 1.0]
        ys = [0.0, 1.0]
    xmin, xmax = min(xs) - 1.0, max(xs) + 1.0
    ymin, ymax = min(ys) - 1.0, max(ys) + 1.0
    width = xmax - xmin
    height = ymax - ymin
    stream.write(
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{xmin:.6f} {-ymax:.6f} {width:.6f} {height:.6f}">\n'
    )
    for cx, cy in ctr:
        stream.write(
            f'  <circle class="disk" cx="{cx:.6f}" cy="{-cy:.6f}" r="1" '
            'fill="steelblue" fill-opacity="0.25" stroke="steelblue" '
            'stroke-width="0.02"/>\n'
        )
    for px, py in pts:
        stream.write(
            f'  <circle class="pt" cx="{px:.6f}" cy="{-py:.6f}" '
            f'r="{point_radius}" fill="black"/>\n'
        )
    stream.write("</svg>\n")
