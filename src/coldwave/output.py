"""Deterministic CSV/JSON emission.

All floating-point output uses 17-significant-digit scientific notation
so that repeated runs with identical inputs are byte-identical and
values round-trip exactly.

CSV is written from columns.  write_csv takes blocks, each a tuple of
equal-length 1-D arrays, and fixes each column's cell format once from
its dtype: float as %.16e, integer and bool as %d, str as %s.  An object
column may hold only str cells (the preformatted cells of float_cells,
or labels); any other cell raises TypeError.  Every BLOCK_ROWS rows of
a block are formatted by one % and written as one string.
"""

import contextlib
import sys

import numpy as np

# Rows formatted by one % and written as one string by write_csv, and
# about the rows of one block of the dispersion CSV.
BLOCK_ROWS = 4096

# CSV cell format by column dtype kind (object: str cells only)
_CELL_FORMATS = {"f": "%.16e", "i": "%d", "u": "%d", "b": "%d", "U": "%s",
                 "O": "%s"}
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def fmt_float(x):
    """Round-trip-safe scientific notation (17 significant digits);
    %.16e spells nan, inf and -inf itself."""
    return "%.16e" % float(x)


def float_cells(values):
    """Object array of the CSV cells of 1-D float values, each formatted
    once as write_csv formats a float column ("%.16e").  A column that
    repeats a few distinct values can take its cells from this table:
    str cells are written as they are, so the bytes do not change."""
    cells = ["%.16e" % v for v in np.asarray(values, dtype=float).tolist()]
    return np.array(cells, dtype=object)


def _cell_format(column):
    if column.dtype.kind not in _CELL_FORMATS:
        raise TypeError(f"cannot write a CSV column of dtype {column.dtype}")
    return _CELL_FORMATS[column.dtype.kind]


def _csv_pieces(header, blocks):
    """The header, then the text of each BLOCK_ROWS slice of each block
    with every row led by a newline: the slice's cells fill an
    (m, ncols) object table column by column, and one % formats it."""
    yield header
    for columns in blocks:
        n = len(columns[0]) if columns else 0
        if any(len(col) != n for col in columns):
            raise ValueError("CSV columns differ in length")
        row = "\n" + ",".join(map(_cell_format, columns))
        objects = [j for j, col in enumerate(columns) if col.dtype == object]
        for k in range(0, n, BLOCK_ROWS):
            m = min(BLOCK_ROWS, n - k)
            table = np.empty((m, len(columns)), dtype=object)
            for j, col in enumerate(columns):
                table[:, j] = col[k:k + m]
            for j in objects:
                found = set(map(type, table[:, j].tolist())) - {str}
                if found:
                    raise TypeError("an object CSV column may hold only str "
                                    f"cells, not {found}")
            yield row * m % tuple(table.ravel().tolist())


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
        text = fmt_float(obj)
        return _JSON_FLOATS.get(text, text)
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


def write_csv(header, blocks, out=None):
    """Write the header line, then the rows of each block of columns in
    turn (see the module docstring)."""
    _write(_csv_pieces(header, blocks), out)


def write_json(obj, out=None):
    write_text(json_text(obj), out)
