"""Text formats: the CSV reader and the writers of every float the package prints."""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quoted
from typing import Sequence

import numpy as np


def read_csv(path_or_text: str, header: tuple[str, ...]) -> tuple[tuple[float, ...], ...]:
    """Columns of a numeric CSV table that starts with the given header.

    An argument containing a newline is the CSV text itself (every valid
    table has a header line); anything else is a file path.  Blank lines
    are skipped.
    """
    if "\n" in path_or_text:
        text = path_or_text
    else:
        with open(path_or_text, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or tuple(s.strip() for s in lines[0].split(",")) != header:
        raise ValueError(f"expected header {','.join(header)}")
    cols: list[list[float]] = [[] for _ in header]
    for ln in lines[1:]:
        try:
            values = [float(part) for part in ln.split(",")]
        except ValueError:
            values = []
        if len(values) != len(header):
            raise ValueError(f"malformed row: {ln!r}")
        for col, value in zip(cols, values):
            col.append(value)
    return tuple(tuple(col) for col in cols)


def write_json(payload: dict) -> str:
    """RFC 8259 JSON text: sorted keys, indent 2, a trailing newline.

    The bytes of json.dumps(payload, sort_keys=True, indent=2) + "\\n",
    except that JSON has no token for inf or nan, so a non-finite float is
    written as the string the CSV prints ("inf", "-inf", "nan").  Keys
    must be strings; a value json cannot write raises TypeError, as there.
    """
    return _json_value(payload, "\n") + "\n"


def _json_value(value, newline: str = "\n  ") -> str:
    # value as write_json writes it on a line that newline (a line break and
    # the line's indent) begins; by default, under a key of the document.
    # A finite float is its repr and a bool its literal, with no call into
    # json; anything else is json.dumps of its strict copy, each line break
    # re-indented.
    if type(value) is float and math.isfinite(value):
        return repr(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    text = json.dumps(_strict(value), sort_keys=True, indent=2, allow_nan=False)
    return text.replace("\n", newline)


def _strict(value):
    # The value json.dumps writes as write_json promises: a non-finite float
    # becomes the string the CSV prints, and a key that is not a string
    # raises TypeError (json would write 1 as "1").
    if isinstance(value, float) and not math.isfinite(value):
        return f"{value:g}"
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def _json_number(text: str) -> str:
    # A "%.12g" string as json writes the float it rounds to.  Twelve digits
    # round-trip, so the float's repr has the same digits; only the notation
    # differs: an integral value gains ".0", and %g turns scientific at 1e12
    # where repr waits until 1e16.  Subnormals carry fewer digits, so they
    # go through repr.  inf and nan become the CSV strings.
    if text in ("inf", "-inf", "nan"):
        return f'"{text}"'
    mantissa, _, exponent = text.partition("e")
    if not exponent:
        return text if "." in text else text + ".0"
    e = int(exponent)
    if e <= -308:
        return repr(float(text))
    if not 12 <= e < 16:
        return text
    sign = "-" if mantissa.startswith("-") else ""
    digits = mantissa.lstrip("-").replace(".", "")
    return sign + digits + "0" * (e + 1 - len(digits)) + ".0"


_ITEM_SEP = ",\n    "  # between the items of an array under a top-level key


def write_json_columns(columns: dict[str, np.ndarray]) -> str:
    """write_json of the columns with each value rounded to 12 significant digits.

    The same bytes as write_json({name: [float(f"{v:.12g}") for v in col]}),
    written straight from the "%.12g" strings, with no parse back to float:
    with an indent the generic encoder runs in pure Python, which long
    spectrum columns cannot afford.  The columns are a table's: at least
    one, each a non-empty float64 array, all of one length.  A column
    passed under two names as one and the same object is rendered once:
    only identity, never ==, says two columns print alike (0.0 == -0.0
    prints as 0.0 and -0.0).
    """
    distinct = list({id(c): c for c in columns.values()}.values())
    # Each column's items block by block, each item followed by its
    # separator; the last item's is dropped.
    texts: list[list[str]] = [[] for _ in distinct]
    for fields in _blocks(distinct, as_json=True):
        for k, text in enumerate(texts):
            text.append(_text_of(fields[:, k]))
    for text in texts:
        text[-1] = text[-1][: -len(_ITEM_SEP)]
    rendered = {id(c): text for c, text in zip(distinct, texts)}
    # The document in one join: each array opens and closes around its
    # items, and the arrays are parted by ",".
    parts = ["{"]
    for name in sorted(columns):
        parts += ["\n  ", _quoted(name), ": [\n    ", *rendered[id(columns[name])], "\n  ],"]
    parts[-1] = parts[-1][:-1] + "\n}\n"
    return "".join(parts)


def write_csv(header: tuple[str, ...], columns: Sequence[np.ndarray]) -> str:
    """CSV text: the header line, then each row's float64 values as "%.12g" cells.

    On a table of _VECTOR_ROWS rows or more, a column passed twice as one
    and the same object is formatted once, as in write_json_columns.
    """
    n = len(columns[0])
    head = ",".join(header) + "\n"
    if n >= _VECTOR_ROWS:
        distinct = list({id(c): c for c in columns}.values())
        index = {id(c): k for k, c in enumerate(distinct)}
        order = [index[id(c)] for c in columns]
        texts = [head]
        for fields in _blocks(distinct, as_json=False):
            # The block's lines, [byte, cell, row]: each cell's field and its
            # separator, "," or after the last cell "\n".
            if len(order) != len(distinct):
                fields = fields[:, order]
            fields[-1, -1] = ord("\n")
            texts.append(_text_of(fields))
        return "".join(texts)
    # One % over the interleaved cells of every row.
    m = len(columns)
    cells: list = [None] * (m * n)
    for k, column in enumerate(columns):
        cells[k::m] = column.tolist()
    return head + (",".join(["%.12g"] * m) + "\n") * n % tuple(cells)


def format_number(value: float) -> str:
    """One value as "%.12g" text, as the table writers print it."""
    return "%.12g" % value


# ---------------------------------------------------------------------------
# "%.12g" text of whole columns in a fixed number of numpy passes.
#
# A value v with 1e-4 <= |v| < 1e12 is written in fixed notation.  With X
# the decimal exponent of its 12-digit rounding, p = |v| 10^(11-X) is one
# rounding of an exact product below 2^40, so at most 2^-14 off, and
# rint(p) is the 12-digit mantissa whenever p is more than 1e-4 from a
# half.  The mantissa's digits go to fixed columns around a fixed decimal
# point, the stripped zeros (and a point with nothing after it) become
# NUL bytes, and bytes.translate deletes every NUL.  Everything else (a
# mantissa near a half, an exponent outside -4..11, 0, inf, nan,
# subnormals) is written by %.

# CSV tables of at least this many rows take the numpy path, and every
# JSON table does.  It costs about 80 us a call in CSV and 90 us in JSON
# whatever the size (warm, best of 7 x 2,000 calls on a one-row table sent
# through it), and it breaks even with % between 120 and 130 rows on
# 3-column spectrum tables and between 90 and 100 rows on 4-column ones,
# on 2 shared CPUs (Python 3.11, numpy 2.4).  The benchmark's sweep tables
# have 200 to 10^4 rows, CSV and JSON, and its point tables one, in CSV.
_VECTOR_ROWS = 130
# Values formatted per numpy block, which bounds its working memory.  A
# 10^4-row table is written faster than with 2^12 or 2^14 values a block.
_BLOCK_VALUES = 1 << 13
# Powers of ten, each an exact float.
_POW10 = np.array([float(10**k) for k in range(16)])


def _blocks(columns: Sequence[np.ndarray], as_json: bool):
    # Per block of rows, the columns' text as an array indexed [byte,
    # column, row]: each value's text runs down one array column, padded
    # with NULs, and its last rows hold the separator that follows the
    # value in the table: "," in CSV, _ITEM_SEP in JSON.  The text is built
    # transposed so that each numpy pass runs along the rows, and all
    # columns go through one _fields call a block, their values copied
    # once, end to end.
    step = max(_BLOCK_VALUES // len(columns), 1)
    for start in range(0, len(columns[0]), step):
        values = np.concatenate([c[start : start + step] for c in columns])
        yield _fields(values, as_json).reshape(-1, len(columns), len(values) // len(columns))


def _text_of(area: np.ndarray) -> str:
    # The text of an array indexed [byte, ..., row], read with its axes
    # reversed (row by row, byte last), NULs dropped.
    return area.T.tobytes().translate(None, b"\0").decode("ascii")


def _fields(values: np.ndarray, as_json: bool) -> np.ndarray:
    # The values' text as NUL-padded ASCII, then the separator: byte i of
    # value j's text (NULs aside) is row i, column j.  Rows from the top:
    # the sign, the integer digits from 10^hi down to 10^0, the point, the
    # fraction digits down to 10^(-narrow), NUL padding that only a long %
    # text fills, and the separator.
    mag = np.abs(values)
    fast = (mag >= 1e-4) & (mag < 1e12)  # false for nan
    mag[~fast] = 1.0
    # A single-precision log10 is close enough: a wrong exponent leaves p
    # outside [1e11, 1e12), and % writes those values (next to a power of
    # ten) too.
    x = np.floor(np.log10(mag.astype(np.float32)))
    x = np.minimum(np.maximum(x, -4, out=x), 11, out=x).astype(np.intp)
    p = mag * _POW10.take(11 - x)
    m = np.rint(p)
    fast &= (p >= 1e11) & (p < 1e12) & (np.abs(p - m) < 0.5 - 1e-4)
    if m.max() >= 1e12:  # a mantissa rounds up to the next power of ten
        carry = m == 1e12
        m[carry] = 1e11
        x[carry] += 1
        fast &= x <= 11
    hi = int(x.max(where=fast, initial=0))
    lo = int(x.min(where=fast, initial=hi))
    narrow = max(11 - lo, 1)

    slow = np.flatnonzero(~fast)
    texts = ["%.12g" % v for v in values[slow].tolist()]
    if as_json:
        texts = [_json_number(t) for t in texts]
    negative = np.signbit(values) & fast
    sign = int(negative.any())
    point = sign + hi + 1
    width = max([point + 1 + narrow] + [len(t) for t in texts])
    separator = _ITEM_SEP if as_json else ","
    field = np.empty((width + len(separator), len(values)), np.uint8)
    if sign:
        field[0] = negative
        field[0] *= ord("-")
    # "0" in every digit row, then each mantissa digit added at the row of
    # its power, either side of the point: per exponent one multiply by the
    # mask and one add, where a masked copy would run byte by byte.
    field[sign : point + 1 + narrow] = ord("0")
    fraction = field[point + 1 : point + 1 + narrow]
    digits = _digits(m)
    placed = np.empty_like(digits)
    for e in range(lo, hi + 1):
        np.multiply(digits, x == e, out=placed)
        if e < 0:
            field[point - e : point - e + 12] += placed
        else:
            field[point - 1 - e : point] += placed[: e + 1]
            fraction[: 11 - e] += placed[e + 1 :]
    # The integer part's leading zeros become NUL: the rows of 10^hi down
    # to 10^1 above a value's own power.
    field[sign : point - 1] *= np.arange(hi, 0, -1)[:, None] <= x
    # The fraction's trailing zeros, and a point with nothing after it,
    # become NUL.
    shown = fraction != ord("0")
    step = 1
    while step < narrow:  # shown[k] |= shown[k + 1:], in log2(narrow) passes
        shown[:-step] |= shown[step:]
        step *= 2
    if as_json:
        shown[0] = True  # json writes an integral float with ".0"
    fraction *= shown
    field[point] = shown[0]
    field[point] *= ord(".")
    field[point + 1 + narrow : width] = 0
    field[width:] = np.frombuffer(separator.encode("ascii"), np.uint8)[:, None]
    if texts:
        padded = "".join([t.ljust(width, "\0") for t in texts]).encode("ascii")
        field[:width, slow] = np.frombuffer(padded, np.uint8).reshape(len(texts), width).T
    return field


def _digits(m: np.ndarray) -> np.ndarray:
    # The twelve decimal digits (0..9, not ASCII) of integral floats below
    # 1e12, one array row per digit, worked out on each value's two
    # six-digit halves in int32.  A pair of digits is q mod 100 for a
    # floored quotient q of a half, taken in uint8, whose wraparound (mod
    # 256) leaves 0..99 intact.
    halves = np.empty((2, len(m)), np.int32)
    halves[0] = m / 1e6
    halves[1] = m - halves[0] * 1e6
    q = np.empty((2, 3, len(m)), np.uint8)  # [half, pair of the half, value]
    q[:, 0] = halves // 10000
    q[:, 1] = halves // 100
    q[:, 2] = halves
    q[:, 1:] -= 100 * q[:, :-1]
    q = q.reshape(6, len(m))
    digits = np.empty((12, len(m)), np.uint8)
    tens = np.floor_divide(q, 10, out=digits[0::2])
    digits[1::2] = q - 10 * tens
    return digits
