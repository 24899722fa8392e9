"""CSV rows of numeric columns, spelled in numpy with the bytes ``_cell`` gives.

``spell_rows(cols)`` returns the rows of a chunk whose columns are all
ranges or integer or float arrays, as ASCII bytes: cells joined by
commas, rows ended by newlines.  An int cell is its decimal digits, and
a float cell is ``float.__repr__`` of the cell cast to float64, as
``harness._cell``'s ``repr(float(v))``: a cell that ``_shortest`` proves
is spelled from its digits, and every other cell by ``float.__repr__``
itself.  Each cell has a fixed-width slot in a uint8 matrix of the
chunk's rows, padded with NUL bytes, whose digits are written four at a
time from a table of 4-byte groups; the rows are the matrix's bytes
without the NULs.

The shortest digits (``_shortest``).  ``float.__repr__`` spells a double
v by the fewest significant digits that read back as v, and of those
the nearest to v (Gay, 1990).  Take v in [2^-13, 1), not a power of
two, so that v in (2^t, 2^(t+1)) has its neighbours at v +- 2^(t-52),
and the decimals within h = 2^(t-53) of v read back as v, those
further away do not.

- Its decade: j in 1..4 with v in (10^-j, 10^(1-j)).  fl(10^-j) lies
  above 10^-j and is the double next to it, so v >= fl(10^-j) exactly
  when v > 10^-j, and 2^-13 > 10^-4.  In units of 10^-(16+j), v is
  X = v*10^(16+j) in (10^16, 10^17), a decimal of k significant digits
  is a multiple of 10^(17-k), and h is H = h*10^(16+j), which lies in
  (10^16*2^-54, 10^17*2^-53), so 0.55 < H < 11.2.  10^(16+j) <= 10^20 is
  an exact double, and so is H.
- X = p + err exactly, with p = fl(X) and err from Dekker's two-product
  (1971), which needs no FMA.  p >= 2^53 is an integer, so with
  N = p + rint(err) and e = err - rint(err), both exact, X = N + e,
  |e| <= 1/2 < H: N, of 17 digits, reads back.
- The multiple of D nearest X is N - I, with b = N mod D and
  I = b - D*[e > D/2 - b], exact on integers; its distance I + e
  rounds once to R, |R - |I + e|| <= 2^-53*|I + e|.
- Only the nearest multiple of 100, c100, can lie within H < 50 of X.
  If it does, it is a multiple of the largest power of ten that does,
  and the only one: the repr is c100 without its trailing zeros.  Else
  the repr is c10, the nearest multiple of 10, if it reads back (it is
  not a multiple of 100), else N (not a multiple of 10).  So the repr
  is "0.", j - 1 zeros and the digits of m, the first of c100, c10 and
  N that reads back, without its trailing zeros.

A cell is proven when each test it takes is decided: e is neither 0
nor +-1/2, where X may lie halfway between two multiples of 10 or two
integers; each R is below H*(1 - 2^-48) rounded, so |I + e| < H, or
at least H*(1 + 2^-48) rounded, so |I + e| > H; and m < 10^17.  ``float.__repr__`` spells every
other cell: 0.0, -0.0, NaN, +-inf, negative values, values >= 1 or
below 2^-13, and powers of two, whose neighbours are not equally far.
"""

from __future__ import annotations

import numpy as np

# a float's slot: float.__repr__ of a double takes at most 24 bytes, as
# -2.2250738585072014e-308 does
_FLOAT_SLOT = 24
_LOW = 2.0 ** -13
_MANTISSA = (1 << 52) - 1
_SPLIT = 2.0 ** 27 + 1  # Veltkamp: a double as two halves of 26 bits
_EXPONENT = 0x7FF << 52
# a distance R below H*_BELOW reads back, and one at or above H*_ABOVE
# does not
_BELOW, _ABOVE = 1 - 2.0 ** -48, 1 + 2.0 ** -48
_TOP = 10 ** 17
# 10^(16 + j) and its Veltkamp halves, by j
_SCALE = np.array([0.0, 1e17, 1e18, 1e19, 1e20])
_SCALE_HI = _SCALE * _SPLIT - (_SCALE * _SPLIT - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI


def _pairs(strip) -> np.ndarray:
    """The digit pairs "00".."99", each stripped by strip and NUL-padded
    back to 2 bytes on the stripped side, as uint16s."""
    pairs = [strip(b"%02d" % i) for i in range(100)]
    return np.array(pairs, dtype="S2").view(np.uint16)


def _groups():
    """Every 4-digit group "0000".."9999" as a uint32 of its 4 bytes, three
    ways: in full; LEAD, its leading zeros NUL, as the top group of a
    number ("0000" all NUL); and TRAIL, its trailing zeros NUL, as a
    group with no nonzero digit after it.  Each is a high pair and a low
    pair from the 100 pairs of the same three kinds."""
    full = _pairs(lambda p: p)
    lead = _pairs(lambda p: p.lstrip(b"0").rjust(2, b"\0"))
    trail = _pairs(lambda p: p.rstrip(b"0"))
    table = np.empty((3, 100, 100, 2), dtype=np.uint16)
    table[0, :, :, 0], table[0, :, :, 1] = full[:, None], full
    table[1, :, :, 0], table[1, :, :, 1] = lead[:, None], full
    table[1, 0, :, 1] = lead  # below 100, the low pair leads
    table[2, :, :, 0], table[2, :, :, 1] = full[:, None], trail
    table[2, :, 0, 0] = trail  # a multiple of 100, the high pair trails
    return table.view(np.uint32).ravel()


_GROUPS = _groups()
_LEAD, _TRAIL = 10 ** 4, 2 * 10 ** 4


def _words(texts) -> np.ndarray:
    """4-byte strings, NUL-padded, as uint32s."""
    return np.array(texts, dtype="S4").view(np.uint32)


# a proven float's first 8 bytes: "0." and j - 1 zeros, then its top digit
_HEAD = _words([b"", b"0.", b"0.0", b"0.00", b"0.00"])  # by j
_HEAD2 = _words([b"%s%d" % (z, d) for z in (b"\0", b"0") for d in range(10)])


def _scaled(w: np.ndarray, j: np.ndarray):
    """(n, e) with w*10^(16+j) = n + e exactly, n an int64 and
    |e| <= 1/2, from Dekker's two-product p + err."""
    P = _SCALE[j]
    p = w * P
    hi = w * _SPLIT
    hi -= hi - w  # Veltkamp's split, w = hi + lo
    lo = w - hi
    Ph, Pl = _SCALE_HI[j], _SCALE_LO[j]
    err = hi * Ph - p
    err += hi * Pl
    err += lo * Ph
    err += lo * Pl
    r = np.rint(err)
    err -= r
    return p.astype(np.int64) + r.astype(np.int64), err


def _nearest(n: np.ndarray, e: np.ndarray, H: np.ndarray, D: int):
    """(c, back, sure): c the multiple of D nearest n + e, |e| <= 1/2,
    back whether it lies within H of n + e, and sure whether R, its
    distance rounded once, decides that."""
    b = n - n // D * D
    I = b - D * (e > D // 2 - b)
    R = np.abs(I + e)
    back = R < H * _BELOW
    return n - I, back, back | (R >= H * _ABOVE)


def _shortest(v: np.ndarray):
    """(proven, m, j): the cells of float64 v that the proof above
    covers, and where proven, the repr of v is "0.", j - 1 zeros and the
    digits of m without its trailing zeros."""
    proven = (v >= _LOW) & (v < 1.0) & (v.view(np.uint64) & _MANTISSA != 0)
    w = np.where(proven, v, 0.5)
    j = 1 + (w < 0.1) + (w < 0.01) + (w < 0.001)
    n, e = _scaled(w, j)
    H = (w.view(np.uint64) & _EXPONENT).view(np.float64)  # 2^t, w in [2^t, 2^(t+1))
    H *= _SCALE[j]
    H *= 2.0 ** -53
    c10, back10, sure10 = _nearest(n, e, H, 10)
    c100, back100, sure100 = _nearest(n, e, H, 100)
    proven &= sure10 & sure100 & (e != 0) & (np.abs(e) != 0.5)
    m = np.where(back100, c100, np.where(back10, c10, n))
    proven &= m < _TOP
    return proven, m, j


def _floats(x: np.ndarray, text: np.ndarray, at: int) -> None:
    """Write float.__repr__ of each cell of x, cast to float64, into the
    24 bytes of each row of text from at, a multiple of 4."""
    v = np.ascontiguousarray(x, dtype=np.float64)
    proven, m, j = _shortest(v)
    words = text.view(np.uint32)
    col = at // 4
    top = m // 10 ** 16
    words[:, col] = _HEAD[j]
    words[:, col + 1] = _HEAD2[top + 10 * (j == 4)]
    low = m - top * 10 ** 16
    zeros = np.full(v.size, _TRAIL, dtype=np.int64)  # no nonzero digit after
    for i in range(col + 5, col + 1, -1):
        q = low // 10 ** 4
        g = low - q * 10 ** 4
        words[:, i] = _GROUPS[g + zeros]
        zeros *= g == 0
        low = q
    rest = np.flatnonzero(~proven)
    if rest.size:
        reprs = np.array([float.__repr__(f) for f in v[rest].tolist()],
                         dtype="S%d" % _FLOAT_SLOT)
        text[rest, at:at + _FLOAT_SLOT] = reprs.view(np.uint8).reshape(rest.size, -1)


def _int_groups(x: np.ndarray) -> int:
    """The 4-digit groups of an int column's largest magnitude."""
    top = max(abs(int(x.min())), abs(int(x.max()))) if x.size else 0
    return max(1, (len(str(top)) + 3) // 4)


def _ints(x: np.ndarray, text: np.ndarray, at: int, groups: int) -> None:
    """Write each cell of x into the rows of text: a minus sign, or NUL, at
    at - 1 and the digits, right-aligned, in groups 4-byte groups from at,
    a multiple of 4."""
    if x.dtype.kind == "u":
        u = x.astype(np.uint64)
    else:
        x = x.astype(np.int64)
        text[:, at - 1] = (x < 0) * ord("-")
        u = x.view(np.uint64)
        u = np.where(x < 0, -u, u)  # |x| mod 2^64, so -2^63 too
    n, lead = np.uint64(10 ** 4), np.uint64(_LEAD)
    words = text.view(np.uint32)
    for i in range(at // 4 + groups - 1, at // 4 - 1, -1):
        q = u // n
        words[:, i] = _GROUPS[(u - q * n) + (u < n) * lead]
        u = q
    text[x == 0, at + 4 * groups - 1] = ord("0")


def _array(col) -> np.ndarray:
    if isinstance(col, range):
        a = np.arange(len(col), dtype=np.int64)
        a *= col.step  # wrapping int64 arithmetic: exact, as every cell fits
        a += col.start
        return a
    return col


def spell_rows(cols: list) -> bytes:
    """The CSV rows of equal-length columns, each a range of int64 values
    or a 1-d integer or float array, as ASCII bytes."""
    arrays = [_array(c) for c in cols]
    # each cell's slot starts at a multiple of 4, an int's after its sign
    # byte, and is followed by its separator
    slots, at = [], 0
    for a in arrays:
        if a.dtype.kind == "f":
            at = -(-at // 4) * 4
            slots.append((at, None))
            at += _FLOAT_SLOT + 1
        else:
            groups = _int_groups(a)
            at = -(-(at + 1) // 4) * 4
            slots.append((at, groups))
            at += 4 * groups + 1
    text = np.zeros((len(arrays[0]), -(-at // 4) * 4), dtype=np.uint8)
    for a, (at, groups) in zip(arrays, slots):
        if groups is None:
            _floats(a, text, at)
            at += _FLOAT_SLOT
        else:
            _ints(a, text, at, groups)
            at += 4 * groups
        text[:, at] = ord(",")
    text[:, at] = ord("\n")
    return text.tobytes().translate(None, b"\0")
