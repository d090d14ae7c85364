import io
import warnings

import numpy as np
import pytest

from udcover.pointio import (
    BenchRecord,
    CSV_HEADER,
    ParseError,
    read_tsplib,
    read_xy,
    write_csv,
    write_svg,
    write_xy,
)


def test_read_xy_basic():
    pts = read_xy(io.StringIO("1.5 2.5\n"))
    assert pts.tolist() == [[1.5, 2.5]]


def test_read_xy_comments_and_blanks():
    pts = read_xy(io.StringIO("# c\n\n0 0\n"))
    assert pts.tolist() == [[0.0, 0.0]]


def test_read_xy_malformed_reports_line():
    with pytest.raises(ParseError) as exc:
        read_xy(io.StringIO("1.5\n"))
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        read_xy(io.StringIO("0 0\n1 x\n"))
    assert exc.value.line == 2


def test_xy_roundtrip():
    pts = np.array([[0.1234567890123, -7.25], [1e-12, 3.5]])
    buf = io.StringIO()
    write_xy(pts, buf)
    buf.seek(0)
    back = read_xy(buf)
    assert np.allclose(back, pts, atol=1e-12, rtol=0)


def test_tsplib_minimal():
    text = (
        "NAME: t\nDIMENSION: 2\nNODE_COORD_SECTION\n"
        "1 0.0 0.0\n2 3.5 4.5\nEOF\n"
    )
    pts = read_tsplib(io.StringIO(text))
    assert pts.tolist() == [[0.0, 0.0], [3.5, 4.5]]


def test_tsplib_returns_c_contiguous_float64():
    for rows in ("1 0.0 0.0\n2 3.5 4.5\n", ""):
        pts = read_tsplib(io.StringIO("NODE_COORD_SECTION\n" + rows + "EOF\n"))
        assert pts.dtype == np.float64 and pts.flags.c_contiguous
        assert pts.shape == (2 if rows else 0, 2)


def test_tsplib_dimension_mismatch():
    text = "DIMENSION: 3\nNODE_COORD_SECTION\n1 0 0\n2 1 1\nEOF\n"
    with pytest.raises(ParseError):
        read_tsplib(io.StringIO(text))


def test_tsplib_missing_section():
    with pytest.raises(ParseError):
        read_tsplib(io.StringIO("DIMENSION: 1\n1 0 0\n"))


def test_tsplib_eof_sentinel_stops():
    text = "NODE_COORD_SECTION\n1 0 0\nEOF\n2 9 9\n"
    pts = read_tsplib(io.StringIO(text))
    assert len(pts) == 1


def test_csv_header_and_format():
    buf = io.StringIO()
    write_csv([], buf)
    assert buf.getvalue() == CSV_HEADER + "\n"

    rec = BenchRecord("fastcover", "sq", 10, 4, 0.15, 1, 0)
    buf = io.StringIO()
    write_csv([rec], buf)
    lines = buf.getvalue().splitlines()
    assert lines[1] == "fastcover,sq,10,4,0.150000,1,0"


def test_csv_bitwise_stable():
    recs = [BenchRecord("a", "i", 5, 2, 0.123456789, 3, t) for t in range(3)]
    a, b = io.StringIO(), io.StringIO()
    write_csv(recs, a)
    write_csv(recs, b)
    assert a.getvalue() == b.getvalue()


def test_svg_contents():
    buf = io.StringIO()
    write_svg([(0.0, 0.0)], [(0.5, 0.0)], buf)
    text = buf.getvalue()
    assert text.count('class="disk"') == 1
    assert text.count('class="pt"') == 1
    assert "viewBox" in text


def test_svg_empty_is_valid_document():
    buf = io.StringIO()
    write_svg([], [], buf)
    text = buf.getvalue()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")


def test_svg_viewbox_encloses_disks():
    buf = io.StringIO()
    write_svg([(0.0, 0.0)], [(10.0, 0.0)], buf)
    header = buf.getvalue().splitlines()[0]
    vb = header.split('viewBox="')[1].split('"')[0]
    xmin, ymin, w, h = map(float, vb.split())
    assert xmin <= -1.0  # point minus margin
    assert xmin + w >= 11.0  # disk center + 1 unit disk margin


def test_read_xy_empty_input_no_warning():
    for text in ("", "\n", " \t\n\n"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = read_xy(io.StringIO(text))
        assert pts.shape == (0, 2) and pts.dtype == np.float64


def test_read_xy_returns_c_contiguous_float64():
    for text in ("0.25 -1e-3\n7 8\n", "# comment\n0.25 -1e-3\n\n7 8\n"):
        pts = read_xy(io.StringIO(text))
        assert pts.dtype == np.float64 and pts.flags.c_contiguous
        assert pts.tolist() == [[0.25, -1e-3], [7.0, 8.0]]


@pytest.mark.parametrize("row", ["2 nan 0", "2 0 inf", "2 -inf 1", "2 1e999 0"])
def test_tsplib_rejects_non_finite_with_line(row):
    text = f"DIMENSION: 2\nNODE_COORD_SECTION\n1 0 0\n{row}\nEOF\n"
    with pytest.raises(ParseError) as exc:
        read_tsplib(io.StringIO(text))
    assert exc.value.line == 4
    assert str(exc.value) == f"line 4: non-finite coordinate in {row!r}"
