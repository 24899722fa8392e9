"""The leaf structure: turn map, ray entries, the non-dense example."""

import tracemalloc
from itertools import islice

import numpy as np
import pytest

from rotn.exactreal import _GUARD, SurdReal, parse_cf
from rotn.foliation import (
    LeafTrace,
    example_alpha,
    example_m_formulas,
    example_point,
    trace_leaf_through,
    trace_ray,
)
from rotn.renorm import tower
from rotn.scan import orbit_scan, sums_histogram
from rotn.words import concat_all, iter_letters, power

ALPHA = parse_cf("[0;5,(6)]")
A = ALPHA.value
HALF = SurdReal(1, 0, 2)


def _sum(x, n):
    """S_n(x) for signed n, from the exact scan."""
    scan = orbit_scan(x, A, abs(n), direction=1 if n >= 0 else -1, policy="exact")
    return int(scan.sums[-1])


def _sums(x0, a, n, direction=1):
    """S_0(x0), S_(+-1)(x0), ..., S_(+-n)(x0), one SurdReal sign test a point."""
    sums, s = [0], 0
    for k in range(1, n + 1):
        # forward S_k adds f(t^(k-1) x0); backward S_(-k) subtracts f(t^(-k) x0)
        j = k - 1 if direction == 1 else -k
        s += direction * (1 if (x0 + a * j).frac() < HALF else -1)
        sums.append(s)
    return sums


def _floats(x0, a, ns):
    """float() of the orbit formula's exact points (x0 + n*a) mod 1, as bytes."""
    return np.array([float((x0 + a * n).frac()) for n in ns]).tobytes()


# ---------------------------------------------------------------------------
# the turn map


def test_turn_map_singular_corner():
    # the leaf going up at x = 1 - alpha runs into the corner; b would wrap to 1
    with pytest.raises(ValueError, match="singular"):
        trace_leaf_through(1 - A, 0, A, 1, policy="exact")


@pytest.mark.parametrize("policy", ["certified", "exact"])
@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("visit", [2, 999])
def test_both_policies_refuse_a_leaf_at_the_corner(policy, direction, visit):
    # visit `visit` sits at the corner's turn: 1 - alpha forward, alpha
    # backward; the certified scan never meets it, so it solves for it,
    # also past the 256 visits a leaf run retraces under the other policy
    corner = 1 - A if direction == 1 else A
    x0 = (corner - A * (visit * direction)).frac()
    # N visits take the turns of visits 0..N-1
    tr = trace_leaf_through(x0, 0, A, visit, direction=direction, policy=policy)
    assert abs(tr.entry_x[visit] - float(corner)) <= tr.radius_bound + 2.0 ** -52
    with pytest.raises(ValueError, match="singular corner"):
        trace_leaf_through(x0, 0, A, visit + 1, direction=direction, policy=policy)


# ---------------------------------------------------------------------------
# ray entries


def test_ray_entry_law_exact_small():
    for i in (-1, 0, 2):
        tr = trace_ray(i, A, 200, policy="exact")
        assert tr.start_index == 1
        assert tr.entry_x.tobytes() == _floats(HALF, A, range(200))
        for k in range(200):
            n = k + 1
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
    assert tr.entry_x.tolist() == [0.5]
    assert tr.entry_level[0] == 7  # S_1(1/2) = -1 cancels the +1 in the law


def test_trace_ray_validates():
    with pytest.raises(ValueError):
        trace_ray(0, A, 0)


# ---------------------------------------------------------------------------
# leaves through a point


def test_leaf_through_orbit_convention():
    x = (1 + A) / 2
    tr = trace_leaf_through(x, 3, A, 150, policy="exact")
    assert tr.entry_x.tobytes() == _floats(x, A, range(151))
    for n in range(151):
        assert tr.entry_level[n] == 3 + _sum(x, n)


def test_leaf_through_backward():
    x = (1 + A) / 2
    tr = trace_leaf_through(x, 0, A, 150, direction=-1, policy="exact")
    assert tr.entry_x.tobytes() == _floats(x, A, range(0, -151, -1))
    for k in range(151):
        assert tr.entry_level[k] == _sum(x, -k)


def test_leaf_through_certified_matches_exact():
    x = (1 + A) / 2
    fast = trace_leaf_through(x, 0, A, 3000)
    slow = trace_leaf_through(x, 0, A, 3000, policy="exact")
    assert np.array_equal(fast.entry_level, slow.entry_level)


@pytest.mark.parametrize("cf", ["[0;5,(6)]", "[0;21,(30,28,26)]"])
@pytest.mark.parametrize("seed, direction", [
    ("ray", 1),
    ("(1+a)/2", 1), ("(1+a)/2", -1),
    ("1/2 + 1/2**80", 1), ("1/2 + 1/2**80", -1),  # integers past 64 bits
    # every |q| past 2^G: the float formula takes its isqrt branch
    ("2**90*a", 1), ("2**90*a", -1),
])
def test_exact_entry_x_is_the_float_of_its_orbit_point(cf, seed, direction):
    # every visit's float shadow is float() of the orbit formula's exact
    # point, bit for bit, and its level the exact Birkhoff sum
    a = parse_cf(cf).value
    N = 300
    if seed == "ray":
        x0 = HALF
        tr = trace_ray(0, a, N + 1, policy="exact")
        levels = [1 + s for s in _sums(x0, a, N + 1)[1:]]  # entry n at 1 + S_n
    else:
        x0 = {"(1+a)/2": (1 + a) / 2, "1/2 + 1/2**80": HALF + SurdReal(1) / 2**80,
              "2**90*a": 2**90 * a}[seed]
        tr = trace_leaf_through(x0, 0, a, N, direction=direction, policy="exact")
        levels = _sums(x0, a, N, direction)
    exact = [(x0 + a * (direction * k)).frac() for k in range(N + 1)]
    assert tr.visits == N + 1
    assert tr.entry_x.tobytes() == np.array([float(x) for x in exact]).tobytes()
    assert tr.entry_level.tolist() == levels
    if seed == "2**90*a":
        assert all(abs(x.q) > 1 << _GUARD for x in exact)


@pytest.mark.parametrize("alpha", [A + 1, A - 1, -A, A + 5],
                         ids=["a+1", "a-1", "-a", "a+5"])
def test_exact_traces_take_alpha_mod_1(alpha):
    # the turn map is written for alpha in (0, 1); the orbit formula and
    # the certified trace read alpha as given, and the same rotation
    x0, N = (1 + A) / 3, 40
    for direction in (1, -1):
        levels = _sums(x0, alpha, N, direction)
        exact = trace_leaf_through(x0, 0, alpha, N, direction=direction, policy="exact")
        assert exact.entry_level.tolist() == levels
        assert exact.entry_x.tobytes() == _floats(x0, alpha, range(0, direction * (N + 1),
                                                                   direction))
        certified = trace_leaf_through(x0, 0, alpha, N, direction=direction)
        assert certified.entry_level.tolist() == levels
    ray = trace_ray(0, alpha, N, policy="exact")
    assert ray.entry_level.tolist() == [1 + s for s in _sums(HALF, alpha, N)[1:]]
    assert ray.entry_level.tolist() == trace_ray(0, alpha, N).entry_level.tolist()


@pytest.mark.parametrize("trace", [
    lambda N: trace_ray(0, A, N, policy="exact"),
    lambda N: trace_leaf_through((1 + A) / 2, 0, A, N - 1, direction=-1, policy="exact"),
], ids=["ray", "backward-leaf"])
def test_exact_traces_keep_under_17_bytes_a_visit(trace):
    # a float64 and an int64 a visit (16 B), under the 17 B a visit that
    # the leaf's refusal charges
    trace(100)  # imports
    N = 10**5
    tracemalloc.start()
    try:
        tr = trace(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.visits == N
    assert peak < 17 * N, peak / N


def test_levels_visited_matches_unique():
    rng = np.random.default_rng(5)
    for start in (-40, 0, 7):
        for visits in (1, 2, 5000):
            walk = rng.choice(np.array([-1, 1]), size=visits - 1)
            lv = start + np.concatenate([[0], np.cumsum(walk)])
            trace = LeafTrace("walk", 1, 0, np.zeros(visits), lv)
            lo, counts = sums_histogram(trace.entry_level)
            visited = (np.flatnonzero(counts) + lo).tolist()
            assert visited == [int(v) for v in np.unique(lv)]


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


def test_example_witness_is_the_fold_of_every_block_factor():
    # the witness grows block by block; it must be the very word, and give
    # the very maxima, that folding all the factors from the start gives
    for m in (2, 3, 4):
        levels = tower(example_alpha(m), 25)
        factors = []
        for j in range(1, 13):
            odd, even = levels[2 * j - 2], levels[2 * j - 1]
            factors += [power(odd.f_minus, m + 1), odd.f_zero,
                        power(odd.f_plus, m), power(even.f_minus, m)]
            rep = example_m_formulas(m, j)
            assert rep.witness is concat_all(factors), (m, j)
            assert rep.block_maxima == [concat_all(factors[:4 * i]).max_prefix
                                        for i in range(1, j + 1)], (m, j)


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
