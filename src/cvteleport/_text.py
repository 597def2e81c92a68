"""Text formats: the one CSV reader and the one JSON writer."""

from __future__ import annotations

import json
import math


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
