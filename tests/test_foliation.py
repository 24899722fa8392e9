"""The leaf structure: turn map, ray entries, the non-dense example."""

from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from rotn.exactreal import SurdReal, parse_cf
from rotn.foliation import (
    example_alpha,
    example_m_formulas,
    example_point,
    leaf_turn,
    trace_leaf_through,
    trace_ray,
)
from rotn.scan import orbit_scan
from rotn.words import iter_letters

ALPHA = parse_cf("[0;5,(6)]")
A = ALPHA.value
HALF = SurdReal(1, 0, 2)


def _sum(x, n):
    """S_n(x) for signed n, from the exact scan."""
    scan = orbit_scan(x, A, abs(n), direction=1 if n >= 0 else -1, policy="exact")
    return int(scan.sums[-1])


# ---------------------------------------------------------------------------
# the turn map


def test_leaf_turn_frozen():
    b3 = leaf_turn(SurdReal(3, 0, 10), A)
    assert b3 == 1 - A - Fraction(3, 10)
    assert abs(float(b3) - 0.5062870566386034) < 1e-15
    assert leaf_turn(SurdReal(23, 0, 10), A) == b3  # x is taken mod 1
    b9 = leaf_turn(SurdReal(9, 0, 10), A)
    assert b9 == 2 - A - Fraction(9, 10)
    assert abs(float(b9) - 0.9062870566386034) < 1e-15


def test_leaf_turn_singular_corner():
    with pytest.raises(ValueError, match="singular"):
        leaf_turn(1 - A, A)


def test_leaf_turn_is_an_involution():
    import random
    rng = random.Random(5)
    for _ in range(100):
        x = SurdReal.from_fraction(Fraction(rng.randrange(1, 997), 997))
        y = leaf_turn(x, A)
        assert leaf_turn(y, A) == x


def test_leaf_turn_is_one_minus_rotation():
    for num in (1, 3, 450, 996):
        x = SurdReal.from_fraction(Fraction(num, 997))
        assert leaf_turn(x, A) == (1 - (x + A).frac()).frac()


# ---------------------------------------------------------------------------
# ray entries


def test_ray_entry_law_exact_small():
    for i in (-1, 0, 2):
        tr = trace_ray(i, A, 200, policy="exact")
        assert tr.start_index == 1
        for k in range(200):
            n = k + 1
            assert tr.exact_x[k] == (HALF + A * (n - 1)).frac()
            assert tr.entry_level[k] == i + 1 + _sum(HALF, n)


def test_ray_certified_matches_exact():
    fast = trace_ray(0, A, 5000)
    slow = trace_ray(0, A, 5000, policy="exact")
    assert np.array_equal(fast.entry_level, slow.entry_level)
    assert np.all(np.abs(fast.entry_x - slow.entry_x) < 1e-9)


def test_rays_translate_vertically():
    base = trace_ray(0, A, 800)
    for i in (-3, 4):
        shifted = trace_ray(i, A, 800)
        assert np.array_equal(shifted.entry_level, base.entry_level + i)
        assert np.array_equal(shifted.entry_x, base.entry_x)


def test_ray_first_entry_is_its_own_rectangle():
    tr = trace_ray(7, A, 1, policy="exact")
    assert tr.exact_x[0] == HALF
    assert tr.entry_level[0] == 7  # S_1(1/2) = -1 cancels the +1 in the law


def test_trace_ray_validates():
    with pytest.raises(ValueError):
        trace_ray(0, A, 0)


# ---------------------------------------------------------------------------
# leaves through a point


def test_leaf_through_orbit_convention():
    x = (1 + A) / 2
    tr = trace_leaf_through(x, 3, A, 150, policy="exact")
    for n in range(151):
        assert tr.exact_x[n] == (x + A * n).frac()
        assert tr.entry_level[n] == 3 + _sum(x, n)


def test_leaf_through_backward():
    x = (1 + A) / 2
    tr = trace_leaf_through(x, 0, A, 150, direction=-1, policy="exact")
    for k in range(151):
        assert tr.exact_x[k] == (x + A * -k).frac()
        assert tr.entry_level[k] == _sum(x, -k)


def test_leaf_through_certified_matches_exact():
    x = (1 + A) / 2
    fast = trace_leaf_through(x, 0, A, 3000)
    slow = trace_leaf_through(x, 0, A, 3000, policy="exact")
    assert np.array_equal(fast.entry_level, slow.entry_level)


def test_leaf_summary_shape():
    s = trace_leaf_through(HALF, 0, A, 100).summary()
    assert set(s) == {"seed", "N", "min_level", "max_level", "levels_visited"}
    assert s["N"] == 100


# ---------------------------------------------------------------------------
# the bounded-orbit family


def test_example_family_constants():
    assert example_alpha(2) == ALPHA
    assert example_alpha(3) == parse_cf("[0;7,(8)]")
    assert example_point(ALPHA) == (1 + A) / 2
    with pytest.raises(ValueError):
        example_alpha(1)


def test_example_report_m2():
    rep = example_m_formulas(2, 5)
    assert rep.ok
    assert all(r.ok for r in rep.rows)
    assert rep.block_maxima == [-1] * 5
    # the witness word is the true sign sequence of the orbit
    scan = orbit_scan(rep.x, rep.alpha.value, 4000, policy="exact")
    head = list(islice(iter_letters(rep.witness), 4000))
    assert head == list(scan.signs[:4000])


def test_example_witness_blocks_sum_down():
    rep = example_m_formulas(3, 4)
    # each block costs m+1 in total height
    assert rep.witness.total == -4 * 4
    assert rep.witness.max_prefix == -1


def test_example_formulas_closed_form_m3():
    rep = example_m_formulas(3, 6)
    by_name = {}
    for r in rep.rows:
        by_name[(r.name, r.level)] = r
    # spot check: level 11 = 2k-1 with k = 6, so max_plus = 4*6 - 3
    row = by_name[("M+(2k-1)=(m+1)k-m", 11)]
    assert row.got == row.expected == 21


def test_example_validation():
    with pytest.raises(ValueError):
        example_m_formulas(1, 3)
    with pytest.raises(ValueError):
        example_m_formulas(2, 0)


def test_example_orbit_never_reaches_zero():
    x = (1 + A) / 2
    scan = orbit_scan(x, A, 20000, policy="certified")
    assert int(scan.sums[1:].max()) == -1
    back = orbit_scan(x, A, 20000, direction=-1, policy="certified")
    assert np.array_equal(back.sums, scan.sums)  # the symmetric seed
