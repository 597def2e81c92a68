"""Text formats: the one CSV reader and the one JSON writer."""

from __future__ import annotations

import json
import math
from typing import Sequence


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


def _strict(obj):
    # JSON has no token for inf or nan: write the strings the CSV prints.
    if isinstance(obj, float) and not math.isfinite(obj):
        return f"{obj:g}"
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def write_json(payload: dict) -> str:
    """RFC 8259 JSON text: sorted keys, indent 2, a trailing newline."""
    return json.dumps(_strict(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


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


def _rounded(column: Sequence[float]) -> str:
    # The values rounded to 12 significant digits, as json writes them, one
    # per array line, from one % over the column.  A "%.12g" string with a
    # "." and no exponent is already json's text; when every one is (the
    # block has no "e" and one "." per value), two scans of the block stand
    # in for a test per value.
    values = tuple(column)
    block = _ITEM_SEP.join(["%.12g"] * len(values)) % values
    if "e" in block or block.count(".") != len(values):
        texts = block.split(_ITEM_SEP)
        texts = [t if "." in t and "e" not in t else _json_number(t) for t in texts]
        block = _ITEM_SEP.join(texts)
    return block


_ITEM_SEP = ",\n    "  # between the items of an array under a top-level key


def write_json_columns(columns: dict[str, Sequence[float]]) -> str:
    """write_json of the columns with each value rounded to 12 significant digits.

    The same bytes as write_json({name: [float(f"{v:.12g}") for v in col]}),
    written straight from the "%.12g" strings, with no parse back to float:
    with an indent the generic encoder runs in pure Python, which long
    spectrum columns cannot afford.  A column passed under two names as one
    and the same object is rendered once: only identity, never ==, says two
    columns print alike (0.0 == -0.0 prints as 0.0 and -0.0), so callers
    that find two columns bitwise equal pass one of them twice.
    """
    rendered: dict[int, str] = {}
    blocks = []
    for name in sorted(columns):
        column = columns[name]
        if id(column) not in rendered:
            rendered[id(column)] = _rounded(column)
        values = rendered[id(column)]
        blocks.append(f"  {json.dumps(name)}: " + (f"[\n    {values}\n  ]" if values else "[]"))
    return "{\n" + ",\n".join(blocks) + "\n}\n" if blocks else "{}\n"
