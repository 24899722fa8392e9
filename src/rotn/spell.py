"""CSV rows of numeric columns, spelled in numpy with the bytes ``_cell`` gives.

``spell_rows(cols, kept)`` returns the rows of a chunk whose columns are
all ranges or integer or float arrays, as ASCII bytes: cells joined by
commas, rows ended by newlines.  An int cell is its decimal digits, and
a float cell is ``float.__repr__`` of the cell cast to float64, as
``harness._cell``'s ``repr(float(v))``: a cell that ``_shortest`` proves
is spelled from its digits, and every other cell by ``float.__repr__``
itself.

The slots.  The chunk's rows are a uint8 matrix padded with NUL bytes,
and the text is the matrix's bytes without the NULs.  Digits are written
four at a time, as uint32 words from a table of 4-byte groups, so each
column's slot is ``need`` bytes that may start on the byte after the
separator before it, then ``digits`` bytes of whole words, then its
separator; each is as wide as its chunk's cells need:
- an int slot's words are the 4-digit groups of the chunk's largest
  magnitude, right-aligned, and its one loose byte is a sign, there only
  when the chunk holds a negative cell;
- a float slot's words are the 16 digits after a proven cell's first,
  its trailing zeros NUL, and its loose bytes end in the head: "0.",
  j - 1 zeros and the first digit, as few bytes as the chunk's largest j
  needs.  A cell that is not proven is written over the whole slot, so
  the slot is as wide as the longest such cell too.
A range of step 1 or -1, the index column of every heavy and leaf
table, takes its ones groups as slices of the group table, in runs of
at most 10^4 rows, and its higher groups and signs as one value a run.

``Kept`` holds the matrix for a table's chunks, as a view of a
bytearray whose own translate drops the NULs, with no copy of the
matrix.  The separators, the newlines and the padding that no cell
writes stay in place from one chunk to the next, so a chunk whose slots
have the widths of the chunk before writes its cells over the same
matrix, and only one whose widths change lays it out again: zeroes it
and writes the separators.

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

from functools import lru_cache

import numpy as np

from .exactreal import _EXPONENT, _MANTISSA, _two_prod

_LOW = 2.0 ** -13
# a distance R below H*_BELOW reads back, and one at or above H*_ABOVE
# does not
_BELOW, _ABOVE = 1 - 2.0 ** -48, 1 + 2.0 ** -48
_TOP = 10 ** 17
# 10^(16 + j), by j
_SCALE = np.array([0.0, 1e17, 1e18, 1e19, 1e20])


def _pairs(strip) -> np.ndarray:
    """The digit pairs "00".."99", each stripped by strip and NUL-padded
    back to 2 bytes on the stripped side, as uint16s."""
    pairs = [strip(b"%02d" % i) for i in range(100)]
    return np.array(pairs, dtype="S2").view(np.uint16)


def _groups():
    """Every 4-digit group "0000".."9999" as a uint32 of its 4 bytes, four
    ways: in full; LEAD, its leading zeros NUL, as the top group of a
    number ("0000" all NUL); TRAIL, its trailing zeros NUL, as a group
    with no nonzero digit after it; and SOLE, LEAD but "0000" as "0", as
    the one group of a number below 10^4.  Each is a high pair and a low
    pair from the 100 pairs of the same kinds."""
    full = _pairs(lambda p: p)
    lead = _pairs(lambda p: p.lstrip(b"0").rjust(2, b"\0"))
    trail = _pairs(lambda p: p.rstrip(b"0"))
    table = np.empty((4, 100, 100, 2), dtype=np.uint16)
    table[0, :, :, 0], table[0, :, :, 1] = full[:, None], full
    table[1, :, :, 0], table[1, :, :, 1] = lead[:, None], full
    table[1, 0, :, 1] = lead  # below 100, the low pair leads
    table[2, :, :, 0], table[2, :, :, 1] = full[:, None], trail
    table[2, :, 0, 0] = trail  # a multiple of 100, the high pair trails
    table[3] = table[1]
    table[3, 0, 0, 1] = _pairs(lambda p: p[1:].rjust(2, b"\0"))[0]  # "0000" as "0"
    return table.view(np.uint32).ravel()


_GROUPS = _groups()
_GROUP = 10 ** 4
_LEAD, _TRAIL, _SOLE = _GROUP, 2 * _GROUP, 3 * _GROUP


@lru_cache(maxsize=None)
def _heads(words: int, comma: bool) -> np.ndarray:
    """A proven float's head, "0.", j - 1 zeros and its first digit d,
    right-aligned in words NUL-padded 4-byte words and cut to them, as
    row i of a (words, 55) uint32 array at column 11*j + d (d = 10 is
    read only by a cell that is not proven); with comma, the first byte
    is the separator before the slot, as the first word holds it."""
    heads = np.frombuffer(b"".join(
        (b"0." + b"0" * (j - 1) + b"%d" % d).rjust(12, b"\0")[-4 * words:]
        for j in range(5) for d in range(11)), dtype=np.uint8).reshape(55, -1)
    if comma:
        heads = heads.copy()
        heads[:, 0] = ord(",")
    return np.ascontiguousarray(heads.view(np.uint32).T)


def _scaled(w: np.ndarray, j: np.ndarray):
    """(n, e) with w*10^(16+j) = n + e exactly, n an int64 and
    |e| <= 1/2, from Dekker's two-product p + err."""
    p, err = _two_prod(w, _SCALE.take(j))
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
    H *= _SCALE.take(j)
    H *= 2.0 ** -53
    c10, back10, sure10 = _nearest(n, e, H, 10)
    c100, back100, sure100 = _nearest(n, e, H, 100)
    proven &= sure10 & sure100 & (e != 0) & (np.abs(e) != 0.5)
    m = np.where(back100, c100, np.where(back10, c10, n))
    proven &= m < _TOP
    return proven, m, j


def _float_column(x):
    """(need, digits, write) of a chunk's float column (see _slots)."""
    v = np.ascontiguousarray(x, dtype=np.float64)
    proven, m, j = _shortest(v)
    rest = np.flatnonzero(~proven)
    reprs = [float.__repr__(f) for f in v[rest].tolist()]
    longest = max(map(len, reprs), default=0)
    if rest.size == v.size:
        return longest, 0, lambda text, p, at: _fallbacks(text, p, at, rest, reprs)
    need = max(int(j.max(where=proven, initial=0)) + 2, longest - 16)

    def write(text, p, at):
        words = text.view(np.uint32)
        first = max(p, 0) // 4  # the word that holds the slot's first byte
        top = m // 10 ** 16
        row = top + 11 * j
        for i, head in enumerate(_heads(at // 4 - first, p >= 0)):
            words[:, first + i] = head.take(row)
        low = m - top * 10 ** 16
        zeros = _TRAIL  # no nonzero digit after
        for i in range(at // 4 + 3, at // 4 - 1, -1):
            q = low // _GROUP
            g = low - q * _GROUP
            words[:, i] = _GROUPS.take(g + zeros)
            if i > at // 4:
                zeros = zeros * (g == 0)
            low = q
        _fallbacks(text, p, at + 16, rest, reprs)

    return need, 16, write


def _fallbacks(text, p, end, rest, reprs) -> None:
    """Write float.__repr__'s reprs over the whole slot, p + 1 to end, of
    the rows rest."""
    if rest.size:
        cells = np.array(reprs, dtype="S%d" % (end - p - 1))
        text[rest, p + 1:end] = cells.view(np.uint8).reshape(rest.size, -1)


def _int_column(x):
    """(need, digits, write) of a chunk's int column (see _slots)."""
    if isinstance(x, range):
        lo, hi = sorted((x[0], x[-1]))
    else:
        lo, hi = int(x.min()), int(x.max())
    groups = max(1, (len(str(max(-lo, hi))) + 3) // 4)
    sign = lo < 0
    if isinstance(x, range) and x.step in (1, -1):
        return sign, 4 * groups, lambda text, p, at: _range(x, text, at, groups, sign)
    if isinstance(x, range):
        a = np.arange(len(x), dtype=np.int64)
        a *= x.step  # wrapping int64 arithmetic: exact, as every cell fits
        a += x.start
        x = a
    return sign, 4 * groups, lambda text, p, at: _ints(x, text, at, groups, sign)


def _ints(x: np.ndarray, text: np.ndarray, at: int, groups: int, sign: bool) -> None:
    """Write each cell of x into the rows of text: with sign, a minus or
    NUL at at - 1, and the digits, right-aligned, in groups 4-byte groups
    from at, a multiple of 4."""
    if x.dtype.kind == "u":
        u = x.astype(np.uint64, copy=False)
    else:
        x = x.astype(np.int64, copy=False)
        if sign:
            text[:, at - 1] = (x < 0) * ord("-")
            x = np.abs(x)  # -2^63 stays, and reads 2^63 as a uint64
        u = x.view(np.uint64)
    words = text.view(np.uint32)
    col = at // 4 + groups - 1
    lead = _SOLE  # the ones group leads below 10^4
    for i in range(col, col - groups + 1, -1):
        q = u // _GROUP
        words[:, i] = _GROUPS.take((u - q * _GROUP).view(np.int64) + (q == 0) * lead)
        u, lead = q, _LEAD
    words[:, col - groups + 1] = _GROUPS.take(u.view(np.int64) + lead)


def _range(r: range, text: np.ndarray, at: int, groups: int, sign: bool) -> None:
    """_ints of a range of step 1 or -1, by slices: in a run of rows of
    one sign whose magnitudes share their digits above the ones group,
    the ones groups are consecutive entries of the group table, and each
    higher group and the sign are one value."""
    words = text.view(np.uint32)
    col = at // 4 + groups - 1
    i, rows = 0, len(r)
    while i < rows:
        v = r[i]
        high, low = divmod(abs(v), _GROUP)
        base = _SOLE if high == 0 else 0
        if (v >= 0) == (r.step > 0):  # magnitudes rise, to the group's 9999
            k = min(rows - i, _GROUP - low)
            words[i:i + k, col] = _GROUPS[base + low:base + low + k]
        else:  # they fall, to the group's 0000, or to 1 before 0 at high 0
            k = min(rows - i, low + (v >= 0 or high > 0))
            words[i:i + k, col] = _GROUPS[base + low - k + 1:base + low + 1][::-1]
        for g in range(col - 1, col - groups, -1):
            high, group = divmod(high, _GROUP)
            words[i:i + k, g] = _GROUPS[group + (_LEAD if high == 0 else 0)]
        if sign:
            text[i:i + k, at - 1] = ord("-") if v < 0 else 0
        i += k


def _slots(columns) -> tuple:
    """Each column's (p, at), its slot's first word at at, a multiple of
    4, after at least need bytes from p + 1, p the separator before it
    (-1 before the first), and the newline's place.  A slot that holds
    need loose bytes and digits bytes of words ends at at + digits,
    where the next separator goes."""
    places, p = [], -1
    for need, digits, _ in columns:
        at = -(-(p + 1 + need) // 4) * 4
        places.append((p, at))
        p = at + digits
    return places, p


class Kept:
    """A table's text matrix and its layout, kept from chunk to chunk:
    ``harness.write_columns`` makes one a table, so the matrix lives as
    long as the table's write.  The matrix is a view of a bytearray,
    whose own translate drops the NULs with no copy of the matrix."""

    def __init__(self):
        self.layout = None
        self.buf = bytearray()
        self.text = None


def spell_rows(cols: list, kept: Kept | None = None) -> bytearray:
    """The CSV rows of equal-length columns, each a range of int64 values
    or a 1-d integer or float array, as a bytearray of ASCII.  kept, one
    Kept for each table's chunks, keeps the matrix; without it, a fresh
    one."""
    rows = len(cols[0])
    if not rows:
        return bytearray()
    kept = Kept() if kept is None else kept
    columns = [_float_column(c) if getattr(c, "dtype", None) is not None
               and c.dtype.kind == "f" else _int_column(c) for c in cols]
    layout = [(need, digits) for need, digits, _ in columns]
    places, end = _slots(columns)
    if kept.layout != layout or kept.text.shape[0] < rows:
        width = -(-(end + 1) // 4) * 4
        if len(kept.buf) < rows * width:
            kept.buf = bytearray(rows * width)
        text = np.frombuffer(kept.buf, np.uint8, rows * width).reshape(rows, width)
        text.fill(0)
        for p, _ in places[1:]:
            text[:, p] = ord(",")
        text[:, end] = ord("\n")
        kept.layout, kept.text = layout, text
    text = kept.text[:rows]
    for (_, _, write), (p, at) in zip(columns, places):
        write(text, p, at)
    whole = kept.buf if text.size == len(kept.buf) else kept.buf[:text.size]
    return whole.translate(None, b"\0")
