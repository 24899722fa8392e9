"""The numeric CSV kernel: float.__repr__'s bytes, proven or by fallback."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rotn.spell import Kept, _shortest, spell_rows


def _reprs(values) -> bytes:
    return "".join(float.__repr__(v) + "\n" for v in values).encode()


def _classes(rng, n):
    """About n doubles of each class the kernel meets or refuses."""
    short = rng.integers(1, 10 ** 6, n) / 10.0 ** rng.integers(1, 8, n)
    edges = np.array([10.0 ** -j for j in range(1, 6)] + [2.0 ** -k for k in range(60)])
    tiny = np.array([5e-324, 2.2250738585072014e-308, 1e-310, 2.0 ** -1074 * 3,
                     1 - 2.0 ** -53, 2.0 ** -13, 0.0, -0.0, math.nan, math.inf,
                     -math.inf, 1.0, 1e16, -0.1])
    return {
        "uniform": rng.random(n),
        # each decade down to 10^-5, across the kernel's 2^-13 edge
        "decades": rng.random(n) * 10.0 ** -rng.integers(0, 6, n),
        # short decimals k/10^j and their neighbours on both sides
        "short": np.concatenate([short, np.nextafter(short, 0), np.nextafter(short, 1)]),
        # 15- to 17-digit decimals, whose reprs need every digit
        "long": rng.integers(1, 10 ** 17, n) / 1e17,
        # powers of two, decade edges and their neighbours
        "edges": np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 1)]),
        # dyadic fractions, many of them at an exact half
        "dyadic": rng.integers(1, 2 ** 20, n) / 2.0 ** 20,
        # any bit pattern: subnormals, NaNs, infinities, huge and negative values
        "bits": rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64),
        "special": tiny,
    }


def test_the_decade_edges_lie_above_their_powers_of_ten():
    # v >= fl(10^-j) exactly when v > 10^-j, as the proof takes it
    for j in (1, 2, 3):
        edge = 10.0 ** -j
        assert Fraction(edge) > Fraction(1, 10 ** j) > Fraction(np.nextafter(edge, 0))
    assert Fraction(2.0 ** -13) > Fraction(1, 10 ** 4)


def test_float_cells_are_float_repr_over_a_million_values():
    rng = np.random.default_rng(20261019)
    classes = _classes(rng, 150_000)
    total = fallback = 0
    for name, v in classes.items():
        assert spell_rows([v]) == _reprs(v.tolist()), name
        proven = _shortest(v)[0]
        total += v.size
        fallback += int(v.size - proven.sum())
    assert total >= 10 ** 6
    # the fallback ran, and the kernel proved nearly every uniform cell
    assert fallback > 10 ** 5
    assert _shortest(classes["uniform"])[0].mean() > 0.999
    # it proves nothing outside [2^-13, 1) and no power of two
    v = classes["edges"]
    proven = _shortest(v)[0]
    assert not proven[(v < 2.0 ** -13) | (v >= 1)].any()
    assert not proven[np.frexp(v)[0] == 0.5].any()


def test_float_arrays_of_any_width_spell_their_float64_value():
    x = np.array([0.1, 0.3, 1 / 3, 2.5, 7e-5, 0.999], dtype=np.float64)
    for dtype in (np.float16, np.float32, np.float64, np.longdouble):
        col = x.astype(dtype)
        assert spell_rows([col]) == _reprs(float(v) for v in col), dtype


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.int32, np.int64,
                                   np.uint32, np.uint64])
def test_int_cells_are_their_decimal_digits(dtype):
    info = np.iinfo(dtype)
    edges = [info.min, info.min + 1, -1, 0, 1, 9, 10, 99, 100, 9999, 10000,
             info.max - 1, info.max]
    x = np.array([v for v in edges if info.min <= v <= info.max], dtype=dtype)
    assert spell_rows([x]) == "".join("%d\n" % v for v in x.tolist()).encode()


def test_ranges_take_the_cells_of_their_int64_values():
    for r in (range(5, -6, -1), range(2 ** 63 - 3, 2 ** 63), range(-(2 ** 63), 0, 2 ** 62),
              range(0, 10 ** 6, 9999)):
        assert spell_rows([r]) == "".join("%d\n" % v for v in r).encode()


def test_rows_join_cells_by_commas():
    x = np.array([0.5, 0.25, 0.1])
    got = spell_rows([range(3), x, np.array([-7, 0, 12345], dtype=np.int64), x])
    assert got == b"0,0.5,-7,0.5\n1,0.25,0,0.25\n2,0.1,12345,0.1\n"


def _lines(values) -> bytes:
    return "".join("%d\n" % v for v in values).encode()


def _chunked(cols, chunk, kept=None):
    """spell_rows over chunk-row slices of cols, one Kept for all, as
    harness.write_columns spells a table."""
    kept = Kept() if kept is None else kept
    rows = len(cols[0])
    return b"".join(spell_rows([c[lo:lo + chunk] for c in cols], kept)
                    for lo in range(0, rows, chunk))


@pytest.mark.parametrize("start", [0, 9995, -9995, 99_999_998, -99_999_998, 2 ** 63 - 5,
                                   -(2 ** 63) + 5])
@pytest.mark.parametrize("step", [1, 3])
def test_ranges_cross_their_group_edges_inside_a_chunk_and_at_its_edge(start, step):
    # 40 values about start, clipped to int64, each way: whole, a group
    # edge falls inside the chunk; in chunks of one row, on a chunk edge
    lo, hi = max(start - 20 * step, -(2 ** 63)), min(start + 20 * step, 2 ** 63)
    for r in (range(lo, hi, step), range(hi - 1, lo - 1, -step)):
        assert spell_rows([r]) == _lines(r), r
        for chunk in (1, 7):
            assert _chunked([r], chunk) == _lines(r), (r, chunk)


def test_backward_and_forward_index_ranges_at_table_sizes():
    C = 8192
    # a leaf's backward indices, and indices whose group edge is a chunk edge
    for r in (range(0, -25_001, -1), range(10 ** 4 - C, 10 ** 4 - C + 3 * C),
              range(-(10 ** 4 - C), -(10 ** 4 - C) - 3 * C, -1),
              range(10 ** 8 - C - 1, 10 ** 8 + C), range(-5, 3 * C, 3)):
        assert _chunked([r], C) == _lines(r), r


def test_a_kept_matrix_narrows_and_leaves_no_stale_bytes():
    # chunk 1: 3-group ints and 24-byte float fallbacks; chunk 2: negative
    # ints; chunk 3: floats in [0.1, 1) and one-group ints; chunk 4: only
    # floats float.__repr__ spells; chunk 5: as chunk 3
    C, rng = 64, np.random.default_rng(39)
    s = rng.integers(0, 10 ** 4, 5 * C)
    s[:C] = rng.integers(10 ** 8, 10 ** 10, C)
    s[C:2 * C] = -rng.integers(1, 10 ** 4, C)
    x = rng.random(5 * C)
    x[:3] = [5e-324, -2.2250738585072014e-308, math.nan]
    x[2 * C:] = 0.1 + 0.9 * x[2 * C:]
    x[3 * C:4 * C] = rng.integers(1, 9, C) / 8
    cols = [range(5 * C), x, s]
    kept, widths = Kept(), []
    for lo in range(0, 5 * C, C):
        chunk = [c[lo:lo + C] for c in cols]
        assert spell_rows(chunk, kept) == spell_rows(chunk)
        widths.append(kept.text.shape[1])
    assert widths[0] > widths[1] > widths[2] == widths[4] and widths[3] < widths[0]
    want = b"".join(b"%d,%s,%d\n" % (i, repr(float(v)).encode(), w)
                    for i, (v, w) in enumerate(zip(x.tolist(), s.tolist())))
    assert _chunked(cols, C) == want
