"""CSV text of table columns, with ``csv.writer``'s bytes.

``write_rows`` writes a table's rows in chunks of _CSV_CHUNK, so a file
is never held as one string.  A table of integer and float arrays only is
formatted in numpy (``_array_chunks``), its float cells with exactly the
bytes of ``repr``; any other table, which has a list or bool column, row
by row with one ``%s`` line.
"""

from __future__ import annotations

import functools
import math
from itertools import islice

import numpy as np

_CSV_CHUNK = 4096  # rows formatted per write
# a float cell whose rounding or round-trip test falls this close to its
# threshold is written by repr; the computed digits err by below 1e-12
_TOL = 1e-6


def write_rows(fh, columns: list) -> None:
    """Write the rows of ``columns`` (one numpy array or list per column,
    of equal lengths) to the text file ``fh``, as ``csv.writer`` writes
    them.  Cells are numbers, bools or "" only: none needs quoting, and
    each is written as its ``str``."""
    if all(_is_numeric(c) for c in columns):
        fh.writelines(_array_chunks(columns))
        return
    line = ",".join(["%s"] * len(columns)) + "\r\n"
    rows = zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns])
    while chunk := "".join([line % row for row in islice(rows, _CSV_CHUNK)]):
        fh.write(chunk)


def _is_numeric(column) -> bool:
    """An integer array, or a float array whose cells ``tolist`` gives as floats."""
    return isinstance(column, np.ndarray) and (
        column.dtype.kind in "iu" or column.dtype.kind == "f" and column.dtype.itemsize <= 8)


def _array_chunks(columns: list[np.ndarray]):
    """CSV rows of equal-length integer and float arrays, _CSV_CHUNK rows
    at a time.  Each chunk is one uint8 table with a field per cell: its
    bytes padded with 0 bytes, then ``,`` or ``\\r\\n``.  The 0 bytes are
    dropped on output, as text.  Integer cells have fields as wide as the
    widest integer cell, sign included, filled row by row: the digits come
    from the cell's magnitude by ``x // 10`` and ``x - 10 q``, right-aligned,
    and a ``-`` goes left of them.  Float cells come from ``_float_cells``,
    a column at a time."""
    n = len(columns[0])
    if n == 0:
        return
    ints = [c for c in columns if c.dtype.kind in "iu"]
    last = len(columns) - 1
    if ints:
        width = max(len(str(x)) for c in ints for x in (c.min(), c.max()))
        # a uint64 holds |int64 min| = 2**63; a magnitude below 10**9 fits, faster, in a uint32
        mag = np.empty((min(n, _CSV_CHUNK), len(ints)), dtype=np.uint32 if width < 10 else np.uint64)
        neg = np.zeros(mag.shape, dtype=bool)
        table = np.zeros(mag.shape + (width + 2,), dtype=np.uint8)
        table[:, :, width] = ord(",")
        if columns[last].dtype.kind in "iu":
            table[:, -1, width:] = (ord("\r"), ord("\n"))
    for start in range(0, n, _CSV_CHUNK):
        k = min(n - start, _CSV_CHUNK)
        if ints:
            for j, col in enumerate(ints):
                col = col[start:start + k]
                if col.dtype.kind == "i":
                    col = col.astype(np.int64, copy=False)  # so |int32 min| is positive
                    np.less(col, 0, out=neg[:k, j])
                mag[:k, j] = np.abs(col)
            x = mag[:k]
            for d in range(width):  # every position, so none keeps a byte of the chunk before
                q = x // 10
                byte = (x - q * 10).astype(np.uint8) + ord("0")
                table[:k, :, width - 1 - d] = byte if d == 0 else byte * (x > 0)
                x = q
            if neg[:k].any():
                rows, cols = np.nonzero(neg[:k])
                digits = np.count_nonzero(table[rows, cols, :width], axis=1)
                table[rows, cols, width - 1 - digits] = ord("-")
        if len(ints) == len(columns):
            cells = table[:k]
        else:
            fields = iter(table[:k].transpose(1, 0, 2) if ints else ())
            cells = np.concatenate(
                [next(fields) if c.dtype.kind in "iu"
                 else _float_cells(c[start:start + k], "\r\n" if j == last else ",").T
                 for j, c in enumerate(columns)], axis=1)
        yield cells.tobytes().translate(None, b"\0").decode()


def _float_cells(x: np.ndarray, end: str) -> np.ndarray:
    """The bytes of ``repr`` of each cell of ``x`` (as a float64), then
    ``end``, as a (bytes, cells) uint8 table padded with 0 bytes.  A cell
    that is finite, at least 2**-1021 in magnitude and not a power of two
    (whose neighbours lie at unequal distances) is laid out by ``_layout``.
    Zeros, infinities and nan are constant cells: ``0.0``, ``-0.0``,
    ``inf``, ``-inf`` and ``nan`` (whatever its sign bit), and so is a
    power of two, with the text ``_power_of_two`` keeps for its sign and
    exponent.  Every other cell, and every cell whose digits ``_shortest``
    leaves undecided, is written by ``repr`` itself."""
    with np.errstate(invalid="ignore"):  # a float32 signalling nan widens to a quiet one
        x = x.astype(np.float64, copy=False)
    a = np.abs(x)
    m, e = np.frexp(a)
    two = m == 0.5  # a power of two: frexp gives 0, inf or nan for the others
    fast = (a > 0) & (a < np.inf) & (e > -1021) & ~two
    i = np.flatnonzero(fast)
    body, slow, constants = np.zeros((0, i.size), np.uint8), i[:0], {}
    if i.size:
        body, undecided = _layout(x[i], m[i], e[i])
        slow = i[undecided]
    if i.size < x.size:  # +0.0 is the table's default below
        masks = {b"-0.0": (a == 0) & np.signbit(x), b"nan": np.isnan(x),
                 b"inf": x == np.inf, b"-inf": x == -np.inf}
        constants = {t: np.flatnonzero(where) for t, where in masks.items() if where.any()}
        if two.any():
            j = np.flatnonzero(two)
            key = 2 * e[j].astype(np.int64) + np.signbit(x[j])
            order = np.argsort(key, kind="stable")
            keys, first = np.unique(key[order], return_index=True)
            constants.update(zip(map(_power_of_two, keys.tolist()), np.split(j[order], first[1:])))
        slow = np.concatenate([slow, np.flatnonzero(~fast & ~two & (a > 0) & (a < np.inf))])
    text = [repr(v) for v in x[slow].tolist()]
    width = max(len(body), 3, *map(len, constants), *map(len, text))
    table = np.zeros((width + len(end), x.size), np.uint8)
    table[width:] = np.frombuffer(end.encode(), np.uint8)[:, None]
    table[:3] = np.frombuffer(b"0.0", np.uint8)[:, None]  # every other cell is written over
    table[:len(body), slice(None) if i.size == x.size else i] = body
    for t, cells in constants.items():
        table[:len(t), cells] = np.frombuffer(t, np.uint8)[:, None]
    if slow.size:
        text = "".join(t.ljust(width, "\0") for t in text).encode()
        table[:width, slow] = np.frombuffer(text, np.uint8).reshape(slow.size, width).T
    return table


def _layout(x: np.ndarray, m: np.ndarray, e: np.ndarray):
    """The bytes of the nonzero normal floats x = ±m 2**e (m in (0.5, 1))
    as a (bytes, cells) table padded with 0 bytes, laid out as repr lays
    them out: positional if -4 < decpt <= 16 (with ``.0`` after an
    integer value), else ``d.ddde±XX`` with at least two exponent digits;
    and the mask of cells whose digits ``_shortest`` leaves undecided.
    The rows are the sign, ``0.`` and the zeros before the digits, the
    digits each followed by a row for the dot, and the exponent; a row
    no cell of ``x`` uses is left out."""
    digits, decpt, nd, undecided = _shortest(m, e)
    positional = (decpt > -4) & (decpt <= 16)
    shown = np.where(positional, np.maximum(nd, decpt + 1), nd)  # trailing zeros up to d.0
    dot = np.where(positional, decpt - 1, np.where(nd > 1, 0, -1))  # the digit the dot follows
    rows = []
    if np.signbit(x).any():
        rows.append(np.signbit(x) * np.uint8(ord("-")))
    lead = positional & (decpt <= 0)  # 0.000ddd
    if lead.any():
        rows += [lead * np.uint8(ord("0")), lead * np.uint8(ord("."))]
        rows += [(lead & (decpt < -j)) * np.uint8(ord("0")) for j in range(-decpt[lead].min())]
    count = shown.max()
    table = _digits(digits, count)
    table *= np.arange(count)[:, None] < shown
    dots = range(max(dot.min(), 0), dot.max() + 1)
    for j, row in enumerate(table):
        rows.append(row)
        if j in dots:
            rows.append((dot == j) * np.uint8(ord(".")))
    expo = ~positional
    if expo.any():
        ex = decpt - 1
        mag = np.abs(ex)
        rows += [expo * np.uint8(ord("e")), expo * np.where(ex < 0, ord("-"), ord("+")).astype(np.uint8)]
        places = [(100, expo & (mag >= 100)), (10, expo), (1, expo)]  # at least two digits
        for p, put in places[0 if places[0][1].any() else 1:]:
            rows.append(put * ((mag // p % 10).astype(np.uint8) + np.uint8(ord("0"))))
    return np.array(rows, dtype=np.uint8), undecided


def _digits(values: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` of the 17 decimal digits of each of ``values``
    (< 10**17) as text, one row per digit."""
    out = np.empty((count, values.size), np.uint8)
    for half, first, size in ((values // 10**8, 0, 9), (values % 10**8, 9, 8)):
        need = min(count - first, size)
        if need > 0:
            x = (half // 10 ** (size - need)).astype(np.uint32)
            for j in range(first + need - 1, first - 1, -1):
                q = x // 10
                out[j] = x - q * 10
                x = q
    out += np.uint8(ord("0"))
    return out


def _shortest(m: np.ndarray, e: np.ndarray):
    """The shortest decimal digits that read back as ``m * 2**e`` (m in
    (0.5, 1), e > -1021), nearest to it among those: (17 digits, decpt,
    number of digits, undecided mask).

    With T = 2**e 10**s in [2e17, 2e18) from ``_power``, y = m T is
    formed as the integer P = fl(m hi) plus lo = (m hi - P) + m lo_T,
    the first term exact by Dekker's product, so Y = P + floor(lo) and
    the fraction f = lo - floor(lo) err by far below 1e-12.  Y is brought
    to 18 digits.  Half the gap to the neighbours is h = hi 2**-54 in
    these units, the same on both sides.  17 digits always read back;
    then for k = 2, 3, ... y is rounded to a multiple of 10**k, and the
    candidate is kept while it lies strictly within h of y.  That holds
    for fewer digits only if it holds for more, so the first failure ends
    the search.  Two kept candidates lie within 2h < 10**3 of each other,
    so from k = 3 on a candidate is kept only if it equals the last one:
    there the search ends by dropping that one's trailing zeros.  A cell
    whose rounding (half of 10**k) or round-trip test (the distance
    against h) lies within _TOL of its threshold is undecided: repr
    writes it, so no tie rule is needed here."""
    table = _powers()
    col = (e + 1020).astype(np.intp)
    for j in np.unique(col[table[1, col] == 0]).tolist():  # exponents not seen before
        table[:, j] = _power(j - 1020)
    decpt, hi, lo, h1, h2 = (row.take(col) for row in table)
    p = m * hi
    c = 134217729.0 * m
    m1 = c - (c - m)  # Dekker's split: m = m1 + m2, 26 bits each
    m2 = m - m1
    lo = ((m1 * h1 - p) + m1 * h2 + m2 * h1) + m2 * h2 + m * lo
    whole = np.floor(lo)
    y = p.astype(np.int64) + whole.astype(np.int64)
    top = y // 1000
    low = (y - top * 1000) + (lo - whole)  # y = 1000 top + low, low in [0, 1000)
    h = hi * 2.0**-54
    big = y >= 10**18  # 19 digits: bring y to 18
    tens = top // 10
    low = np.where(big, ((top - tens * 10) * 1000 + low) / 10, low)
    top = np.where(big, tens, top)
    h = np.where(big, h / 10, h)
    decpt = decpt.astype(np.int64) + big
    kept = np.zeros(y.size)  # 1000 top + kept is the kept candidate
    passed = np.zeros(y.size, np.int64)
    undecided = np.zeros(y.size, dtype=bool)
    live = np.ones(y.size, dtype=bool)
    for k in (1, 2, 3):
        c = np.floor(low / 10**k + 0.5) * 10**k
        d = np.abs(low - c)
        ok = d < h
        near = live & ((ok & (10**k / 2 - d < _TOL)) | (np.abs(d - h) < _TOL))
        undecided |= near
        live &= ok & ~near
        kept = np.where(live, c, kept)
        passed += live
    best = top * 1000 + kept.astype(np.int64)
    carry = best == 10**18
    best[carry] = 10**17
    cut = np.maximum(passed, 1)  # digits cut from 18; undecided cells are written by repr
    if live.any():
        rest = best[live] // 1000
        cut[live] += np.count_nonzero(rest[:, None] % 10 ** np.arange(1, 16) == 0, axis=1)
    return best // 10, decpt + carry, 18 - cut, undecided


@functools.cache
def _power_of_two(key: int) -> bytes:
    """``repr`` of the power of two ``(-1)**sign * 2**(e - 1)``, key = 2e +
    sign, as bytes; made the first time the key is seen."""
    return repr(math.ldexp(-0.5 if key & 1 else 0.5, key >> 1)).encode()


@functools.cache
def _powers() -> np.ndarray:
    """``_power(e)`` for e = -1020 .. 1024 as the columns of one table,
    each filled by ``_shortest`` the first time its exponent is seen; a
    column not yet filled is 0."""
    return np.zeros((5, 2045))


def _power(e: int) -> tuple[int, float, float, float, float]:
    """(18 - s, hi, lo, hi1, hi2) for T = 2**e 10**s in [2e17, 2e18):
    hi is the float nearest T, lo the float nearest T - hi, and hi1 + hi2
    = hi is Dekker's split.  Exact integer arithmetic (int / int divides
    correctly rounded), once per exponent."""
    s = 17 - e * 30103 // 100000
    while True:
        num = 2 ** max(e, 0) * 10 ** max(s, 0)
        den = 2 ** max(-e, 0) * 10 ** max(-s, 0)
        if num < 2 * 10**17 * den:
            s += 1
        elif num >= 2 * 10**18 * den:
            s -= 1
        else:
            break
    hi = num / den
    a, b = hi.as_integer_ratio()
    c = 134217729.0 * hi
    hi1 = c - (c - hi)
    return 18 - s, hi, (num * b - a * den) / (den * b), hi1, hi - hi1


