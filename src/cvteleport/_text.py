"""Text formats: the CSV reader and the writers of every float the package prints."""

from __future__ import annotations

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
    With an indent json's encoder runs in pure Python, so this one pass
    writes the text directly instead.
    """
    return _encoded(payload, "\n") + "\n"


def _encoded(value, newline: str) -> str:
    # value as json writes it on a line that newline (a line break and the
    # line's indent) begins: numbers by the float and int reprs, keys and
    # strings by json's own escaper, which raises TypeError for a key that
    # is not a string.
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else f'"{value:g}"'
    if isinstance(value, str):
        return _quoted(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_quoted(key) + ": " + _encoded(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_encoded(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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


def _rounded(column: np.ndarray) -> str:
    # The values rounded to 12 significant digits, as json writes them, one
    # per array line, from one % over the column.  A "%.12g" string with a
    # "." and no exponent is already json's text; when every one is (the
    # block has no "e" and one "." per value), two scans of the block stand
    # in for a test per value.
    values = tuple(column.tolist())
    block = _ITEM_SEP.join(["%.12g"] * len(values)) % values
    if "e" in block or block.count(".") != len(values):
        texts = block.split(_ITEM_SEP)
        texts = [t if "." in t and "e" not in t else _json_number(t) for t in texts]
        block = _ITEM_SEP.join(texts)
    return block


_ITEM_SEP = ",\n    "  # between the items of an array under a top-level key


def write_json_columns(columns: dict[str, np.ndarray]) -> str:
    """write_json of the columns with each value rounded to 12 significant digits.

    The same bytes as write_json({name: [float(f"{v:.12g}") for v in col]}),
    written straight from the "%.12g" strings, with no parse back to float:
    with an indent the generic encoder runs in pure Python, which long
    spectrum columns cannot afford.  The columns are a table's: float64
    arrays of equal length.  A column passed under two names as one and the
    same object is rendered once: only identity, never ==, says two columns
    print alike (0.0 == -0.0 prints as 0.0 and -0.0), so callers that find
    two columns bitwise equal pass one of them twice.
    """
    distinct = list({id(c): c for c in columns.values()}.values())
    if distinct and len(distinct[0]) >= _VECTOR_ROWS:
        texts: list[list[str]] = [[] for _ in distinct]
        for fields in _blocks(distinct, as_json=True):
            # One column's items at a time, [byte, row]: the field, then the
            # separator rows, filled once a block.
            width, _, rows = fields.shape
            items = np.empty((width + len(_ITEM_SEP), rows), np.uint8)
            items[width:] = np.frombuffer(_ITEM_SEP.encode("ascii"), np.uint8)[:, None]
            for k, text in enumerate(texts):
                items[:width] = fields[:, k]
                text.append(_text_of(items))
        arrays = ["".join(text)[: -len(_ITEM_SEP)] for text in texts]
    else:
        arrays = [_rounded(c) for c in distinct]
    rendered = {id(c): text for c, text in zip(distinct, arrays)}
    blocks = []
    for name in sorted(columns):
        values = rendered[id(columns[name])]
        blocks.append(f"  {_quoted(name)}: " + (f"[\n    {values}\n  ]" if values else "[]"))
    return "{\n" + ",\n".join(blocks) + "\n}\n" if blocks else "{}\n"


def write_csv(header: tuple[str, ...], columns: Sequence[np.ndarray]) -> str:
    """CSV text: the header line, then each row's float64 values as "%.12g" cells.

    A column passed twice as one and the same object is formatted once, as
    in write_json_columns.
    """
    n = len(columns[0])
    head = ",".join(header) + "\n"
    if n >= _VECTOR_ROWS:
        distinct = list({id(c): c for c in columns}.values())
        index = {id(c): k for k, c in enumerate(distinct)}
        texts = [head]
        for fields in _blocks(distinct, as_json=False):
            # The block's lines, [cell, byte, row]: each cell's field, then
            # its separator, "," or after the last cell "\n".
            width, _, rows = fields.shape
            lines = np.empty((len(columns), width + 1, rows), np.uint8)
            for cell, column in zip(lines, columns):
                cell[:width] = fields[:, index[id(column)]]
            lines[:, width] = ord(",")
            lines[-1, width] = ord("\n")
            texts.append(_text_of(lines.reshape(-1, rows)))
        return "".join(texts)
    # One % over the interleaved cells of every row; a column written twice
    # gets one % of its own, and its text goes in through %s.
    cells: list = [None] * (len(columns) * n)
    shared: dict[int, list[str]] = {}
    row = []
    for k, column in enumerate(columns):
        if sum(c is column for c in columns) > 1:
            if id(column) not in shared:
                shared[id(column)] = ("\n".join(["%.12g"] * n) % tuple(column.tolist())).split("\n")
            values = shared[id(column)]
            row.append("%s")
        else:
            values = column.tolist()
            row.append("%.12g")
        cells[k :: len(columns)] = values
    return head + (",".join(row) + "\n") * n % tuple(cells)


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
# NUL bytes, and one translate deletes every NUL.  Everything else (a
# mantissa near a half, an exponent outside -4..11, 0, inf, nan,
# subnormals) is written by %.

# Tables of at least this many rows take the numpy path.  It costs about
# 100 us a call whatever the size (warm, best of 7 x 2,000 calls on a
# one-row table sent through it), and it breaks even with % between 150
# and 200 rows on 3- and 4-column spectrum tables, CSV and JSON, on 2
# shared CPUs (Python 3.11, numpy 2.4); sweep tables have 200 to 10^4
# rows, a point table one.
_VECTOR_ROWS = 200
# Values formatted per numpy block, which bounds its working memory.
_BLOCK_VALUES = 1 << 13
# Powers of ten, each an exact float.
_POW10 = np.array([float(10**k) for k in range(16)])


def _blocks(columns: Sequence[np.ndarray], as_json: bool):
    # Per block of rows, the columns' text as an array indexed [byte,
    # column, row]: each value's text runs down one array column, padded
    # with NULs.  The text is built transposed so that each numpy pass runs
    # along the rows, and all columns go through one _fields call a block.
    stacked = np.stack(columns)
    step = max(_BLOCK_VALUES // len(columns), 1)
    for start in range(0, stacked.shape[1], step):
        block = stacked[:, start : start + step]
        yield _fields(block.ravel(), as_json).reshape(-1, *block.shape)


def _text_of(area: np.ndarray) -> str:
    # The text of a [byte, value] array, read value by value, NULs dropped.
    return area.T.tobytes().translate(None, b"\0").decode("ascii")


def _fields(values: np.ndarray, as_json: bool) -> np.ndarray:
    # The values' text as NUL-padded ASCII: byte i of value j's text (NULs
    # aside) is row i, column j.
    mag = np.abs(values)
    fast = (mag >= 1e-4) & (mag < 1e12)  # false for nan
    mag[~fast] = 1.0
    # A single-precision log10 is close enough: a wrong exponent leaves p
    # outside [1e11, 1e12), and % writes those values (next to a power of
    # ten) too.
    x = np.clip(np.floor(np.log10(mag.astype(np.float32))), -4, 11).astype(np.intp)
    p = mag * _POW10.take(11 - x)
    m = np.rint(p)
    fast &= (p >= 1e11) & (p < 1e12) & (np.abs(p - m) < 0.5 - 1e-4)
    carry = m == 1e12  # rounds up to the next power of ten
    m[carry] = 1e11
    x[carry] += 1
    fast &= x <= 11
    hi = int(x.max(where=fast, initial=0))
    lo = int(x.min(where=fast, initial=hi))
    # Digit rows from 10^hi down to 10^(-narrow): the mantissa's twelve
    # digits at the rows of their powers, "0" elsewhere, then NUL for the
    # integer part's leading zeros and the fraction's trailing ones.
    narrow = max(11 - lo, 1)
    area = np.full((hi + 1 + narrow, len(values)), ord("0"), np.uint8)
    mantissa = _digits(m)
    for e in range(lo, hi + 1):
        np.copyto(area[hi - e : hi - e + 12], mantissa, where=x == e)
    area[:hi] *= np.arange(hi)[:, None] >= hi - np.maximum(x, 0)
    shown = area[hi + 1 :] != ord("0")
    for k in range(narrow - 2, -1, -1):
        shown[k] |= shown[k + 1]
    if as_json:
        shown[0] = True  # json writes an integral float with ".0"
    area[hi + 1 :] *= shown

    slow = np.flatnonzero(~fast)
    texts = ["%.12g" % v for v in values[slow].tolist()]
    if as_json:
        texts = [_json_number(t) for t in texts]
    negative = np.signbit(values) & fast
    sign = int(negative.any())
    width = max([sign + hi + narrow + 2] + [len(t) for t in texts])
    field = np.empty((width, len(values)), np.uint8)
    field[sign + hi + narrow + 2 :] = 0  # rows only a long % text fills
    if sign:
        field[0] = negative
        field[0] *= ord("-")
    field[sign : sign + hi + 1] = area[: hi + 1]
    field[sign + hi + 1] = shown[0]
    field[sign + hi + 1] *= ord(".")
    field[sign + hi + 2 : sign + hi + 2 + narrow] = area[hi + 1 :]
    if texts:
        padded = "".join([t.ljust(width, "\0") for t in texts]).encode("ascii")
        field[:, slow] = np.frombuffer(padded, np.uint8).reshape(len(texts), width).T
    return field


def _digits(m: np.ndarray) -> np.ndarray:
    # The twelve ASCII digits of integral floats below 1e12, one array row
    # per digit, worked out on each value's two six-digit halves in int32.
    # A pair of digits is q mod 100 for a floored quotient q of a half,
    # taken in uint8, whose wraparound (mod 256) leaves 0..99 intact.
    high = (m / 1e6).astype(np.int32)
    halves = np.stack([high, (m - high * 1e6).astype(np.int32)])
    q = np.empty((3, 2, len(m)), np.uint8)  # [pair of the half, half, value]
    q[0] = halves // 10000
    q[1] = halves // 100
    q[2] = halves
    q[1:] -= 100 * q[:-1]
    q = q.transpose(1, 0, 2).reshape(6, len(m))
    tens = q // 10
    digits = np.empty((12, len(m)), np.uint8)
    digits[0::2] = tens
    digits[1::2] = q - 10 * tens
    digits += ord("0")
    return digits
