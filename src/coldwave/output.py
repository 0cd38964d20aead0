"""Deterministic CSV/JSON emission.

All floating-point output uses 17-significant-digit scientific notation
so that repeated runs with identical inputs are byte-identical and
values round-trip exactly.
"""

import contextlib
import functools
import itertools
import math
import sys

import numpy as np

# Rows converted from arrays to Python values per step of column_rows,
# and about the rows of one block of the dispersion CSV.
BLOCK_ROWS = 4096


def fmt_float(x):
    """Round-trip-safe scientific notation (17 significant digits)."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".16e")


@functools.lru_cache(maxsize=256)
def _row_format(types):
    """One %-format for a row whose cells have these types: floats as
    fmt_float writes them (%.16e also spells nan, inf, -inf), integers
    (bool included) as %d, anything else as str()."""
    return ",".join(
        "%.16e" if issubclass(t, (float, np.floating))
        else "%d" if issubclass(t, (int, np.integer))
        else "%s"
        for t in types)


def float_cells(values):
    """Object array of the CSV cells of 1-D float values, each formatted
    once as a row format would write it ("%.16e").  A column that
    repeats a few distinct values can take its cells from this table:
    str cells are written as they are, so the bytes do not change."""
    cells = ["%.16e" % v for v in np.asarray(values, dtype=float).tolist()]
    return np.array(cells, dtype=object)


def _csv_rows(rows):
    for row in rows:
        row = tuple(row)
        yield _row_format(tuple(map(type, row))) % row


def csv_lines(header, rows):
    """Header plus comma-joined rows with deterministic formatting."""
    return [header, *_csv_rows(rows)]


def column_rows(*columns):
    """Rows (tuples of Python values) of equal-length 1-D arrays.

    A column may be an object array of preformatted cells (see
    float_cells); they are written unchanged.  Columns are converted
    BLOCK_ROWS rows at a time, so no full-length list of Python values
    is ever held.
    """
    n = len(columns[0]) if columns else 0
    for k in range(0, n, BLOCK_ROWS):
        yield from zip(*(col[k:k + BLOCK_ROWS].tolist() for col in columns))


def json_text(obj, indent=0):
    """Serialize with fixed key order (dict insertion order) and
    fmt_float for every float; NaN/Infinity follow the Python json
    convention and remain loadable by json.loads."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return fmt_float(x)
    if isinstance(obj, str):
        import json as _json
        return _json.dumps(obj)
    if isinstance(obj, dict):
        items = [
            f'{pad}  {json_text(str(k))}: {json_text(v, indent + 2)}'
            for k, v in obj.items()
        ]
        if not items:
            return "{}"
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        items = [f"{pad}  {json_text(v, indent + 2)}" for v in seq]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write(pieces, out):
    """Write text pieces to the given path, or stdout when out is None,
    and end with a newline unless the text already does."""
    with (contextlib.nullcontext(sys.stdout) if out is None
          else open(out, "w", encoding="utf-8", newline="\n")) as fh:
        last = ""
        for piece in pieces:
            fh.write(piece)
            last = piece or last
        if not last.endswith("\n"):
            fh.write("\n")


def write_text(text, out=None):
    """Write to the given path, or stdout when out is None."""
    _write([text], out)


def write_csv(header, rows, out=None):
    """Write the text of ``csv_lines(header, rows)``, one row at a time."""
    lines = ("\n" + line for line in _csv_rows(rows))
    _write(itertools.chain([header], lines), out)


def write_json(obj, out=None):
    write_text(json_text(obj), out)
