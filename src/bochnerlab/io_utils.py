"""Byte-stable JSON and CSV writers.

All floating-point values are serialized with 17 significant digits so
identical runs produce identical bytes and values round-trip exactly.

Numeric tables (the node CSV, the flow trace, map dumps) are held as
`ColumnRows` and rendered a block of rows at a time by `fmt17_fields`,
which writes whole arrays in numpy with the bytes `fmt17` gives each
cell.  A column is read as a view of its array where the strides
allow, and a derived column (the node CSV's indices, e and slack) is
computed a block at a time, so a table costs only its block beyond
the arrays it reads.  `fmt17_fields` scales |x| to a 17-digit
integer in double-double arithmetic (Veltkamp split and Dekker
product, Numer. Math. 18, 1971) with a correctly rounded two-double
power of ten, rounds it half to even, and reads the digits from a
10^4-entry table.  A cell that is NaN,
infinite, subnormal or outside [1e-270, 1e270] (zero excepted), or
whose inexactly scaled value lies within `TIE_MARGIN` of a rounding
tie, is formatted by `fmt17` on its own.  Tables of other cell types
(the scan CSV) are written one cell at a time.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericalError
from .numerics import fmt17


def _serialize(obj, indent, level, path):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise NumericalError(f"non-finite result: {path}")
        return fmt17(x)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_serialize(x, indent, level + 1, f"{path}[{i}]") for i, x in enumerate(obj)]
        return "[\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad_in}{_serialize(str(k), indent, 0, path)}: "
            f"{_serialize(v, indent, level + 1, f'{path}.{k}' if path else str(k))}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def json_dumps(obj, indent=2):
    """The JSON text of obj.  A NaN or infinite number, which no check
    can pass, is a NumericalError naming its key path, such as
    `levels[0].sup_residual`, so that a command that serializes its
    result before it writes any file writes none."""
    return _serialize(obj, indent, 0, "") + "\n"


# -- the vectorised %.17g kernel ---------------------------------------------

# A cell's field is FIELD bytes, four little-endian uint64 words: the
# sign and the "0.000" of 1e-4 <= |x| < 1 in word 0, then 17 digits with
# one slot for the point (bytes 8..25), "e+dd" or "e-ddd" (26..30) and
# a byte left for a separator.  Unused bytes are NUL.
FIELD = 32
_TAIL = 26
_LOW, _HIGH = 1e-270, 1e270  # the Veltkamp split stays finite in between
_K = 280  # tables cover the decades -_K.._K
# The scaled value is exact when 10**(16 - k) is (-6 <= k <= 16), and
# otherwise exact to about 2^-47 absolute (relative error 2^-106 of a
# value below 1e17, plus the rounding of a low part below 2^5), so an
# inexact fraction this close to 1/2 may round either way.  A true tie
# needs an exact power of ten: x * 10**p with p < 0 or p > 22 is never
# a half-integer.
TIE_MARGIN = 2.0**-40
_SPLIT = 2.0**27 + 1.0


def _pow10(p):
    """10**p as a double pair hi + lo, each correctly rounded."""
    if p >= 0:
        n = 10**p
        hi = float(n)
        return hi, float(n - int(hi))
    d = 10**-p
    hi = 1 / d  # int / int is correctly rounded
    num, den = hi.as_integer_ratio()
    return hi, (den - num * d) / (den * d)


def _split(a):
    """Veltkamp: a = a1 + a2 exactly, each with at most 26 significant bits."""
    c = _SPLIT * a
    a1 = c - (c - a)
    return a1, a - a1


@functools.cache
def _tables():
    """Constants built on first use.

    pow10: 10**(16 - k) as hi, lo and the split of hi, one array each,
    indexed by k + _K.  frame: each decade's field words with its "0."
    prefix or exponent; point and frac: the point's slot among the 18
    and the number of digits after it.  masks[:, 18 * point + keep]:
    the three body words that take the digit at their slot (A), the
    three that take the digit before it (B) and the three holding the
    point, when `keep` digits are shown.  quad: 4-digit ASCII groups as
    integers, tz: their trailing zeros.
    """
    ks = range(-_K, _K + 1)
    hi, lo = np.array([_pow10(16 - k) for k in ks]).T
    pow10 = (hi, lo) + _split(hi)
    frame = np.zeros((len(ks), FIELD), np.uint8)
    point = np.empty(len(ks), np.int64)
    frac = np.empty(len(ks), np.int64)
    for i, k in enumerate(ks):
        if -4 <= k < 0:
            text = b"0." + b"0" * (-k - 1)
            frame[i, 1:1 + len(text)] = np.frombuffer(text, np.uint8)
            point[i], frac[i] = 17, 17
        elif 0 <= k < 17:
            point[i], frac[i] = k + 1, 16 - k
        else:
            text = b"e%+03d" % k
            frame[i, _TAIL:_TAIL + len(text)] = np.frombuffer(text, np.uint8)
            point[i], frac[i] = 1, 16
    j, keep, slot = np.ogrid[:18, :18, :24]
    # the tables are built in small integer types, so that the build
    # holds a few hundred KB
    masks = np.stack([
        np.uint8(255) * ((slot < j) & (slot < keep)),
        np.uint8(255) * ((slot > j) & (slot <= keep)),
        np.uint8(46) * ((slot == j) & (j < keep)),
    ], axis=2).view("<u8").reshape(18 * 18, 9).T.copy()
    n = np.arange(10000, dtype=np.uint16)
    groups = 48 + np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    groups = groups.astype(np.uint8)
    quad = groups.view("<u4").ravel().astype(np.uint64)
    tz = np.sum(np.cumprod(groups[:, ::-1] == 48, axis=1, dtype=np.uint8), axis=1, dtype=np.int64)
    return pow10, frame.view("<u8"), point, frac, masks, quad, tz


def _scaled(a, i, pow10):
    """a * 10**(16 - k) as p + e, p the rounded product and e its error."""
    h, lo, h1, h2 = (np.take(t, i) for t in pow10)
    p = a * h
    a1, a2 = _split(a)
    e = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2  # Dekker: a*h - p
    return p, e + a * lo


def fmt17_fields(x):
    """%.17g of each value of a float array, as (n, FIELD) NUL-padded bytes.

    Deleting the NUL bytes of row i gives fmt17(x[i]); the last byte of
    each row is NUL.  Zeros and normal values in [1e-270, 1e270] are
    rendered in numpy; the rest, and values whose inexactly scaled
    17-digit rounding lies within TIE_MARGIN of a tie, call fmt17.
    """
    x = np.ravel(np.asarray(x, dtype=float))
    pow10, frame, point, frac, masks, quad, tz = _tables()
    # each temporary is dropped once it is dead, so that a block holds a
    # few cell-sized arrays at a time
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= _LOW) & (a <= _HIGH)
    a = np.where(fast, a, 1.0)  # 0 is written as 1, then its digit fixed
    i = np.floor(np.log10(a)).astype(np.int64) + _K  # decade k, offset
    p, e = _scaled(a, i, pow10)
    # log10 may miss the decade by one; decide it from the unrounded product
    low = (p - 1e16) + e < 0.0
    high = (p - 1e17) + e >= 0.0
    moved = np.flatnonzero(low | high)
    if moved.size:
        i[moved] += high[moved].astype(np.int64) - low[moved]
        p[moved], e[moved] = _scaled(a[moved], i[moved], pow10)
    del a, low, high, moved
    # p >= 2**53 is an even integer, so e carries the fraction of the
    # product, and rint(e) rounds an exact tie to even
    near = (np.abs(e - np.floor(e) - 0.5) < TIE_MARGIN) & (np.take(pow10[1], i) != 0.0)
    slow = np.flatnonzero(~(fast | zero) | near)
    del fast, near
    D = p.astype(np.int64) + np.rint(e).astype(np.int64)
    del p, e
    carry = D == 10**17  # rounded up into the next decade
    D[carry] = 10**16
    i += carry
    del carry
    g = []  # the four 4-digit groups below the leading digit, last first
    for _ in range(4):
        q = D // 10000
        g.append(D - 10000 * q)
        D = q
    z4 = g[0] == 0
    z3 = z4 & (g[1] == 0)
    z2 = z3 & (g[2] == 0)
    t4, t3, t2, t1 = (np.take(tz, k) for k in g)
    trailing = t4 + z4 * t3 + z3 * t2 + z2 * t1
    del t4, t3, t2, t1, z4, z3, z2
    keep = 17 - np.minimum(trailing, np.take(frac, i))  # digits shown
    c = 18 * np.take(point, i) + keep  # each cell's column of masks
    del trailing, keep
    q4, q3, q2, q1 = (np.take(quad, k) for k in g)
    del g
    a1 = np.where(zero, 48, 48 + D).astype(np.uint64) | q1 << 8 | q2 << 40
    a2 = q2 >> 24 | q3 << 8 | q4 << 40
    a3 = q4 >> 24
    del zero, D, q1, q2, q3, q4
    out = np.take(frame, i, axis=0)
    del i
    out[:, 0] |= np.signbit(x) * np.uint64(45)
    # A: the 17 digits from slot 0 of the body, B: the same from slot 1;
    # body word w takes A through masks[w], B through masks[w + 3] and
    # the point from masks[w + 6]
    spill = 0  # the top byte of the word before, shifted into B
    for w, A in enumerate((a1, a2, a3)):
        mA, mB, mp = (np.take(masks[w + k], c) for k in (0, 3, 6))
        out[:, w + 1] |= A & mA | (A << 8 | spill) & mB | mp
        spill = A >> 56
    del a1, a2, a3, c, mA, mB, mp, spill
    out = out.view(np.uint8)
    for n in slow:
        text = fmt17(x[n]).encode()
        out[n] = 0
        out[n, :len(text)] = np.frombuffer(text, np.uint8)
    return out


# -- CSV ---------------------------------------------------------------------

# rows formatted and written at a time; fmt17_fields holds a few
# temporaries of the block's cell count at once, about 1.5 MB for 1024
# rows of the 12-column node CSV, and larger blocks write no faster
CSV_BLOCK = 1024


def write_csv(path, header, rows):
    """Header line, then one line per row.

    A float cell is written with 17 significant digits, as `fmt17`
    writes it (nan, inf, -inf, -0 included), and any other cell as its
    str().  A `ColumnRows` table is rendered by `ColumnRows.encode`,
    any other sequence of rows one cell at a time.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if isinstance(rows, ColumnRows):
            fh.writelines(rows.encode(","))
            return
        for row in rows:
            cells = (fmt17(c) if isinstance(c, (float, np.floating)) else str(c) for c in row)
            fh.write((",".join(cells) + "\n").encode())


class ColumnRows:
    """The rows of a numeric table held as equal-length columns.

    A column is an array, read in C order (as a view where its strides
    allow), or a function that gives its cells on rows start..stop - 1,
    for a column derived from others a block at a time.  The cells are
    floats or integers below 2**53 in magnitude, which convert to float
    exactly and print as str() prints them.  `count` is the number of
    rows, by default the length of the first column.
    """

    def __init__(self, columns, count=None):
        self.columns = [c if callable(c) else np.reshape(c, -1) for c in columns]
        for c in self.columns:
            if callable(c):
                continue
            if c.dtype.kind not in "iuf":
                raise TypeError(f"ColumnRows holds numbers, not {c.dtype}")
            # the extremes in the column's own type, so -2**63 cannot overflow
            if c.dtype.kind in "iu" and c.size and (c.min() <= -2**53 or c.max() >= 2**53):
                raise ValueError("integer cells must lie below 2**53 in magnitude")
        self.count = len(self.columns[0]) if count is None else count

    def __len__(self):
        return self.count

    def cells(self, start, stop):
        """Rows start..stop - 1 of the table, shape (rows, columns)."""
        return np.stack(
            [c(start, stop) if callable(c) else c[start:stop] for c in self.columns], axis=1)

    def encode(self, sep):
        """The lines, cells joined by `sep`, as bytes of CSV_BLOCK rows each."""
        ends = np.full(len(self.columns), ord(sep), np.uint8)
        ends[-1] = ord("\n")
        for start in range(0, len(self), CSV_BLOCK):
            block = self.cells(start, min(start + CSV_BLOCK, len(self)))
            cells = fmt17_fields(block).reshape(block.shape + (FIELD,))
            cells[..., -1] = ends
            yield cells.tobytes().translate(None, b"\0")
