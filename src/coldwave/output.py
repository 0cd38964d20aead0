"""Deterministic CSV/JSON emission.

All floating-point output uses 17-significant-digit scientific notation
("%.16e") so that repeated runs with identical inputs are byte-identical
and values round-trip exactly.

CSV is written from columns.  write_csv takes blocks, each a tuple of
equal-length 1-D arrays, and every cell follows one rule fixed by its
column's dtype: a float cell is "%.16e" % x (float32 and other widths
upcast to float64 first), an integer or bool cell its decimal digits
(as %d), a str cell its UTF-8 text.  An object column may hold only str
cells; any other cell raises TypeError.  A str cell with no UTF-8
encoding (a lone surrogate such as U+D800) raises UnicodeEncodeError.

A column may also be dictionary-encoded: a pair (values, index) of 1-D
arrays whose cell i is the cell of values[index[i]].  It has len(index)
rows, values follows the dtype rule above, and index must hold integers
in [0, len(values)); any other index raises ValueError.  Each slice
formats the values from the least to the greatest index it reads once
and copies their cells to its rows, so a column of few distinct values
(a grid axis repeated or tiled over an outer product, a column of
labels) costs a copy per row instead of a formatted cell.

Every BLOCK_ROWS rows of a block are built as one (rows, width) uint8
table and written in one piece: each row is "\n" and its cells joined
by ",", every column filling a byte range wide enough for its longest
cell.  Unused bytes hold 0xFF, which UTF-8 never contains, and are
removed before the slice is written.  Integer cells are built from
4-digit groups; str cells are their UTF-8 bytes, NUL and non-ASCII
included.  Files are written as these bytes; stdout takes them decoded.

Float cells come from an exact numpy kernel.  With E = floor(log10|x|),
q = |x| * 10^(16-E) is formed as a double-double: 10^(16-E) is hi + lo
from a table built with integer arithmetic, and |x| * hi is split into
its rounded product and exact error by Dekker's two-product.  q is
rounded to a 17-digit integer, half to even at an exact tie (possible
only where 10^(16-E) is a double, lo == 0), and the cell is written as
six uint32 words read from tables of digit groups.  The cells the
kernel leaves to "%.16e" % x itself are: nan and inf, |x| outside
[1e-280, 1e280] (zero is written directly), a fraction of q within 1e-9
of 1/2 where lo != 0, and a floor of q outside [1e16, 1e17) or rounding
up to 1e17 (E off by one, or a carry into the next decade).
"""

import contextlib
import functools
import sys

import numpy as np

# Rows of one table of write_csv, written in one piece, and about the
# rows of one block of the dispersion CSV.
BLOCK_ROWS = 4096

# Byte of the unused part of a cell's range: never part of UTF-8 text
_PAD = 0xFF
# Cell widths in bytes, whole uint32 words: a float is sign, digit,
# point, digit; 12 digits; 3 digits and "e"; exponent sign and 3 digits
# (padded); an integer is sign, 3 pads, then 20 digits (those of
# 2**64 - 1)
_FLOAT_WIDTH, _INT_WIDTH = 24, 24
# Exponents E of the kernel's range [1e-280, 1e280], one more below for
# floor(log10) rounding down a power of ten
_E_MIN, _E_MAX = -281, 280
# 10^1 .. 10^19: the digit count of an unsigned integer
_POW10_U64 = np.array([10 ** k for k in range(1, 20)], dtype=np.uint64)
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def fmt_float(x):
    """Round-trip-safe scientific notation (17 significant digits);
    %.16e spells nan, inf and -inf itself."""
    return "%.16e" % float(x)


def _split(a):
    """Veltkamp's split of a into hi + lo, each of at most 26 bits."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _tables():
    """The kernel's tables, built on first use from integers.

    digits: the ASCII of 0000 .. 9999, one uint32 word each.  head, at
    two digits + 100 * sign: the word sign, digit, point, digit.  last,
    at three digits: the word of those digits and "e".  power, at
    E - _E_MIN: the word exponent sign and digits.  hi, its Veltkamp
    split and lo, at E - _E_MIN: 10^(16-E) = hi + lo, hi the double
    nearest it and lo the double nearest the rest (int -> float and
    int / int round to nearest).
    """
    decimal = ("%04d" * 10000 % tuple(range(10000))).encode()
    head = b"".join(b"%c%d.%d" % (sign, k // 10, k % 10)
                    for sign in (_PAD, ord("-")) for k in range(100))
    last = ("%03de" * 1000 % tuple(range(1000))).encode()
    e = range(_E_MIN, _E_MAX + 1)
    power = b"".join(b"%c%c%02d" % (
        ord("-") if k < 0 else ord("+"),
        ord("0") + abs(k) // 100 if abs(k) >= 100 else _PAD, abs(k) % 100)
        for k in e)
    hi, lo = [], []
    for k in (16 - k for k in e):
        if k >= 0:
            hi.append(float(10 ** k))
            lo.append(float(10 ** k - int(hi[-1])))
        else:
            hi.append(1 / 10 ** -k)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10 ** -k) / (den * 10 ** -k))
    hi = np.array(hi)
    words = (np.frombuffer(t, np.uint32) for t in (decimal, head, last, power))
    return (*words, hi, _split(hi), np.array(lo))


def _groups(r, widths):
    """(len(widths), m) digit groups of int64 r >= 0, of these numbers
    of digits, most significant first (the first takes what is left)."""
    groups = np.empty((len(widths), len(r)), np.intp)
    for k in range(len(widths) - 1, 0, -1):
        q = r // 10 ** widths[k]
        groups[k] = r - q * 10 ** widths[k]
        r = q
    groups[0] = r
    return groups


def _fill_float(field, x):
    """Write the "%.16e" cells of float64 x into field, an (m, 24) uint8
    table view (see the module docstring)."""
    digits, head, last, power, p_hi, (p_hh, p_hl), p_lo = _tables()
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    i = np.floor(np.log10(a)).astype(np.intp) - _E_MIN
    hi, lo = p_hi[i], p_lo[i]
    # |x| 10^(16-E) = p + t: p = fl(a hi), t the exact error of p (Dekker)
    # plus a lo
    p = a * hi
    a_hi, a_lo = _split(a)
    hh, hl = p_hh[i], p_hl[i]
    t = a_hi * hh - p
    t += a_hi * hl
    t += a_lo * hh
    t += a_lo * hl
    t += a * lo
    # p >= 2^53 is even, so rint(t) rounds p + t half to even
    r = np.rint(t)
    fast &= np.floor(t) >= 1e16 - p
    fast &= r < 1e17 - p
    fast &= (np.abs(t - r) < 0.5 - 1e-9) | (lo == 0.0)
    n = p.astype(np.int64) + r.astype(np.int64)
    n[~fast] = 0  # zero is digits 0 and E = 0 (a = 1); the rest is redone
    g = _groups(n, (2, 4, 4, 4, 3))
    words = np.empty((6, len(x)), np.uint32)
    words[0] = head[g[0] + 100 * np.signbit(x)]
    words[1:4] = digits[g[1:4]]
    words[4] = last[g[4]]
    words[5] = power[i]
    field.view(np.uint32)[...] = words.T
    rest = np.flatnonzero(~fast & (x != 0.0))
    if rest.size:
        text = np.array(["%.16e" % v for v in x[rest].tolist()],
                        f"S{_FLOAT_WIDTH}").view(np.uint8)
        field[rest] = np.where(text == 0, _PAD, text).reshape(rest.size, -1)


def _fill_int(field, v):
    """Write the decimal digits of integer or bool v into field, an
    (m, 24) uint8 table view."""
    digits = _tables()[0]
    mag = v.astype(np.uint64)  # two's complement for negative int
    if v.dtype.kind == "i":
        mag = np.where(v < 0, -mag, mag)
    top = mag // 10 ** 16
    words = np.empty((5, len(v)), np.uint32)
    words[0] = digits[top.astype(np.intp)]
    words[1:] = digits[_groups((mag - top * 10 ** 16).astype(np.int64),
                               (4, 4, 4, 4))]
    field.view(np.uint32)[:, 1:] = words.T
    field[:, 0] = np.where(v < 0, ord("-"), _PAD)
    count = np.searchsorted(_POW10_U64, mag, side="right") + 1
    field[:, 4:][np.arange(20) < 20 - count[:, None]] = _PAD


def _utf8(column):
    """(bytes, byte length of each cell) of a str or object column."""
    cells = column.tolist()
    if column.dtype == object:
        found = set(map(type, cells)) - {str}
        if found:
            raise TypeError("an object CSV column may hold only str "
                            f"cells, not {found}")
    data = "".join(cells).encode()
    lengths = np.fromiter(map(len, cells), np.intp, len(cells))
    if len(data) != lengths.sum():  # not ASCII: count bytes
        lengths = np.fromiter((len(c.encode()) for c in cells), np.intp,
                              len(cells))
    return np.frombuffer(data, np.uint8), lengths


def _fill(field, values, text):
    """Write the cells of 1-D values into field, a (len(values), width)
    uint8 table view filled with _PAD; text is _utf8(values) for a str
    column, else None."""
    if text is not None:  # row i takes the next lengths[i] bytes of data
        data, lengths = text
        field[np.arange(field.shape[1]) < lengths[:, None]] = data
    elif values.dtype.kind == "f":
        with np.errstate(all="ignore"):  # a signaling NaN stays NaN
            x = values.astype(np.float64)
        _fill_float(field, x)
    else:
        _fill_int(field, values)


def _pair(col):
    """(values, index) of a CSV column; index is None for a 1-D array."""
    return col if isinstance(col, tuple) else (col, None)


def _rows(values, index):
    return len(values if index is None else index)


def _slice_bytes(columns):
    """The UTF-8 rows of one nonempty slice of equal-length columns, each
    led by a newline: a (m, width) uint8 table filled column by column,
    its padding removed.  A (values, index) column formats values[lo:hi],
    the span its index reads, into a table of its own, and each row
    copies its cell from there as one item."""
    m = _rows(*_pair(columns[0]))
    sources = []  # (values whose cells are formatted, index or None)
    for values, index in map(_pair, columns):
        if index is not None:
            lo = index.min()
            values, index = values[lo:index.max() + 1], index - lo
        sources.append((values, index))
    texts = [_utf8(values) if values.dtype.kind in "UO" else None
             for values, _ in sources]
    widths = [_FLOAT_WIDTH if values.dtype.kind == "f" else
              _INT_WIDTH if text is None else text[1].max(initial=0)
              for (values, _), text in zip(sources, texts)]
    starts = np.cumsum([1] + [w + 1 for w in widths])
    buf = bytearray(m * (starts[-1] - 1))
    table = np.frombuffer(buf, np.uint8).reshape(m, -1)
    table.fill(_PAD)
    table[:, 0] = ord("\n")
    table[:, starts[1:-1] - 1] = ord(",")
    for (values, index), text, start, width in zip(sources, texts, starts,
                                                   widths):
        field = table[:, start:start + width]
        if index is None:
            _fill(field, values, text)
        else:
            cells = np.full((len(values), width), _PAD, np.uint8)
            _fill(cells, values, text)
            cell = np.dtype(f"V{width}")
            field.view(cell)[...] = cells.view(cell)[index]
    return buf.translate(None, bytes([_PAD]))


def _csv_pieces(header, blocks):
    """The header, then the text of each BLOCK_ROWS slice of each block
    with every row led by a newline, as UTF-8."""
    yield header.encode()
    for columns in blocks:
        sources = [_pair(col) for col in columns]
        rows = [_rows(*source) for source in sources]
        n = rows[0] if rows else 0
        if any(k != n for k in rows):
            raise ValueError("CSV columns differ in length")
        for values, index in sources:
            if values.dtype.kind not in "fiubUO":
                raise TypeError(
                    f"cannot write a CSV column of dtype {values.dtype}")
            # numpy would wrap a negative index without a word
            if index is not None and not (
                    index.dtype.kind in "iu" and index.ndim == 1
                    and (index.size == 0 or 0 <= index.min()
                         and index.max() < len(values))):
                raise ValueError("the index of a CSV column must be 1-D "
                                 f"integers in [0, {len(values)})")
        for k in range(0, n, BLOCK_ROWS):
            yield _slice_bytes([
                values[k:k + BLOCK_ROWS] if index is None
                else (values, index[k:k + BLOCK_ROWS])
                for values, index in sources])


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
    """Write UTF-8 pieces to the given path, or as text to stdout when
    out is None, and end with a newline unless the text already does."""
    with (contextlib.nullcontext() if out is None else open(out, "wb")) as fh:
        write = fh.write if fh is not None else lambda piece: (
            sys.stdout.write(piece.decode()))
        last = b""
        for piece in pieces:
            write(piece)
            last = piece or last
        if not last.endswith(b"\n"):
            write(b"\n")


def write_text(text, out=None):
    """Write to the given path, or stdout when out is None."""
    _write([text.encode()], out)


def write_csv(header, blocks, out=None):
    """Write the header line, then the rows of each block of columns in
    turn; a column is a 1-D array or a (values, index) pair (see the
    module docstring)."""
    _write(_csv_pieces(header, blocks), out)


def write_json(obj, out=None):
    write_text(json_text(obj), out)
