"""read_xy against the line loop it replaced, on generated text."""

import io
import math
import warnings

import numpy as np
import pytest

from udcover.pointio import ParseError, read_xy

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


def reference_read_xy(stream):
    """The line loop read_xy ran on every input before it gained a
    vectorised pass: the reference that read_xy must match exactly."""
    xs = []
    ys = []
    for lineno, line in enumerate(stream, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise ParseError(f"expected two numbers, got {text!r}", lineno)
        try:
            x = float(parts[0])
            y = float(parts[1])
        except ValueError:
            raise ParseError(f"malformed number in {text!r}", lineno) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"non-finite coordinate in {text!r}", lineno)
        xs.append(x)
        ys.append(y)
    return np.array([xs, ys], dtype=np.float64).T.reshape(-1, 2)


_DECIMAL = st.from_regex(r"[+-]?[0-9]{1,5}(\.[0-9]{0,6})?([eE][+-]?[0-9]{1,3})?",
                         fullmatch=True)
_REPR = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_ODD = st.sampled_from([
    "1_0", "+1", ".5", "-0", "-0.0", "1.", "nan", "NaN", "-nan", "inf",
    "-inf", "infinity", "Infinity", "1e400", "-1e400", "0x10", "1__0", "_1",
    "x", "1,5", "1d5", "\u0661", "1e", "--1",
])
_TOKEN = st.one_of(_DECIMAL, _REPR, _ODD)
_GAP = st.sampled_from([" ", "  ", "\t", " \t ", "\x0c", "\xa0"])
_PAD = st.sampled_from(["", "", " ", "\t", "\x0c"])


@st.composite
def _point_line(draw, token=_TOKEN, gap=_GAP, pad=_PAD):
    return draw(pad) + draw(token) + draw(gap) + draw(token) + draw(pad)


_PLAIN_LINE = _point_line(token=st.one_of(_DECIMAL, _REPR),
                          gap=st.sampled_from([" ", "\t", " \t"]),
                          pad=st.sampled_from(["", " "]))
_ODD_LINE = st.one_of(
    _point_line(),
    st.tuples(_TOKEN).map(" ".join),
    st.tuples(_TOKEN, _TOKEN, _TOKEN).map(" ".join),
    st.sampled_from(["", " ", "\t", " \t ", "\x0c"]),
    st.sampled_from(["#", "# comment", "  # indented", "#1 2", "1 2 # tail"]),
)


@st.composite
def _xy_text(draw):
    plain = draw(st.booleans())
    lines = draw(st.lists(_PLAIN_LINE if plain else st.one_of(_PLAIN_LINE, _ODD_LINE),
                          max_size=12))
    ending = "\n" if plain else draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines)
    if lines and draw(st.booleans()):
        text += ending
    return text


def _outcome(read, text, newline):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            pts = read(io.StringIO(text, newline=newline))
        except ParseError as exc:
            return ("error", str(exc), exc.line)
    return ("points", pts.shape, pts.dtype, pts.tobytes())


@settings(max_examples=200, deadline=None)
@given(text=_xy_text(), newline=st.sampled_from([None, "", "\n"]))
@example(text="", newline=None)
@example(text=" \n\t\n", newline=None)
@example(text="1 2\r3 4\n", newline="")
@example(text="1 2\n3\n", newline=None)
@example(text="-0 1e400\n", newline=None)
def test_read_xy_matches_line_loop(text, newline):
    """Bit-equal points or the same ParseError (message and line) as the
    line loop, with no warning, on every input."""
    assert _outcome(read_xy, text, newline) == _outcome(reference_read_xy, text, newline)
