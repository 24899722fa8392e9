"""The scan kernel, certified-vs-exact agreement, escalation."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import rotn.scan
from rotn.exactreal import Frame, SurdReal, _surd_sign, parse_cf
from rotn.renorm import half_word
from rotn.scan import (
    _CHUNK, _EXACT_CHUNK, _exact_scan, _floor_twice, _scan_radii, backend_name,
    kernel_for, orbit_positions, orbit_scan, scan_kernel, sums_histogram,
)
from rotn.words import prefix_histogram

A = parse_cf("[0;5,(6)]").value
HALF = SurdReal(1, 0, 2)


def test_backend_selection(monkeypatch):
    assert backend_name() == "python"
    kernel = kernel_for(backend_name())
    assert kernel is rotn.scan.scan_kernel
    with pytest.raises(ImportError):
        kernel_for("cython")
    with pytest.raises(ValueError):
        kernel_for("fortran")
    # the certified scan runs that same kernel
    calls = []

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(rotn.scan, "scan_kernel", spy)
    orbit_scan(HALF, A, 10, policy="certified")
    assert len(calls) == 1


def test_certified_agrees_with_exact():
    n = 10**5
    fast = orbit_scan(HALF, A, n, policy="certified")
    slow = orbit_scan(HALF, A, n, policy="exact")
    assert np.array_equal(fast.signs, slow.signs)
    assert np.array_equal(fast.sums, slow.sums)
    assert np.all(np.abs(fast.positions - slow.positions)
                  <= fast.radius_bound + 1e-12)


def test_backward_scan_sums():
    x = (1 + A) / 2
    fwd = orbit_scan(x, A, 200, policy="exact")
    back = orbit_scan(x, A, 200, direction=-1, policy="exact")
    # this seed is symmetric, so backward sums equal forward sums
    assert np.array_equal(back.sums, fwd.sums)
    assert back.sums[0] == 0
    # backward positions walk the inverse rotation
    for n in (1, 7, 199):
        assert abs(back.positions[n] - float((x + A * -n).frac())) \
            <= back.radius_bound + 1e-12


def test_escalation_is_observable_and_correct():
    x = HALF + SurdReal(1) / 2**80  # floats cannot see this offset
    scan = orbit_scan(x, A, 10, policy="certified")
    assert 0 in scan.escalated
    assert scan.signs[0] == -1  # exactly on the right of the split
    below = HALF - SurdReal(1) / 2**80
    scan2 = orbit_scan(below, A, 10, policy="certified")
    assert scan2.signs[0] == 1
    assert np.array_equal(scan.sums[1:], 0 + np.cumsum(scan.signs[:-1]) + 0)


def test_radius_model_is_honest():
    n = 10**6
    scan = orbit_scan(HALF, A, n, policy="certified")
    exact = orbit_scan(HALF, A, n, policy="exact")
    assert scan.radius_bound < 1e-6
    err = np.abs(scan.positions - exact.positions)
    # true float error must sit inside the claimed radius everywhere
    assert float(err.max()) <= scan.radius_bound


def test_policy_validation():
    with pytest.raises(ValueError):
        orbit_scan(HALF, A, 10, policy="sloppy")
    with pytest.raises(ValueError):
        orbit_scan(HALF, A, -1)
    with pytest.raises(ValueError):
        orbit_scan(HALF, A, 10, direction=0)


def _reference_kernel(x0, alpha, n, base_radius, radius_slope):
    """The kernel as it was before chunk buffers and the radius screen:
    2^20-index chunks, fresh temporaries, and the full radius test on
    every index.  Kept verbatim as the reference for ``scan_kernel``."""
    _CHUNK = 1 << 20
    pos = np.empty(n, dtype=np.float64)
    signs = np.empty(n, dtype=np.int8)
    amb_parts = []
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        i = np.arange(lo, hi, dtype=np.float64)
        z = x0 + i * alpha
        z -= np.floor(z)
        # frac can round up to exactly 1.0 for z just under an integer
        wrapped = z >= 1.0
        if wrapped.any():
            z[wrapped] = 0.0
        pos[lo:hi] = z
        signs[lo:hi] = np.where(z < 0.5, 1, -1).astype(np.int8)
        rad = base_radius + i * radius_slope
        bad = (np.abs(z - 0.5) <= rad) | (z <= rad) | (z >= 1.0 - rad)
        if bad.any():
            amb_parts.append(np.nonzero(bad)[0].astype(np.int64) + lo)
    if amb_parts:
        ambiguous = np.concatenate(amb_parts)
    else:
        ambiguous = np.empty(0, dtype=np.int64)
    return pos, signs, ambiguous


@pytest.mark.parametrize("cf", ["[0;5,(6)]", "[0;(2)]"])  # admissible, not
@pytest.mark.parametrize("seed", ["1/2", "(1+a)/2", "a/3"])
@pytest.mark.parametrize("direction", [1, -1])
def test_kernel_matches_reference_bit_for_bit(cf, seed, direction):
    alpha = parse_cf(cf).value
    x0 = {"1/2": HALF, "(1+a)/2": (1 + alpha) / 2, "a/3": alpha / 3}[seed]
    x0f, af, base, slope = _scan_radii(x0, alpha)
    rng = np.random.default_rng(len(cf) + len(seed) + direction)
    sizes = (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, int(rng.integers(0, 3 * _CHUNK)))
    # the real radii, then stress radii that flag many indices per chunk
    radii = ((base, slope), (1e-4, 1e-11), (1e-4, 0.0), (0.0, 1e-11))
    flagged = 0
    for n in sizes:
        for b, r in radii:
            pos, signs, amb = scan_kernel(x0f, direction * af, n, b, r)
            ref_pos, ref_signs, ref_amb = _reference_kernel(
                x0f, direction * af, n, b, r)
            assert np.array_equal(pos.view(np.uint64), ref_pos.view(np.uint64))
            assert np.array_equal(signs, ref_signs)
            assert amb.dtype == ref_amb.dtype and np.array_equal(amb, ref_amb)
            flagged += ref_amb.size
    assert flagged > 0  # the radius screen was exercised


@pytest.mark.parametrize("direction", [1, -1])
def test_sums_are_a_plain_cumsum_across_chunks(direction):
    for n in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3):
        scan = orbit_scan(HALF, A, n, direction=direction)
        steps = scan.signs[:-1] if direction == 1 else -scan.signs[1:]
        expected = np.concatenate([[0], np.cumsum(steps, dtype=np.int64)])
        assert np.array_equal(scan.sums, expected)


@pytest.mark.parametrize("direction", [1, -1])
def test_certified_scan_memory_is_its_output(direction):
    n = 10**6
    orbit_scan(HALF, A, 10, direction=direction)  # warm the radius caches
    tracemalloc.start()
    try:
        orbit_scan(HALF, A, n, direction=direction)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # positions, signs and sums take 8 + 1 + 8 bytes per step; the
    # kernel's chunk buffers and cumsum's cast copy fit in the 4 MB
    assert peak <= 17 * n + 4 * 2**20


@pytest.mark.parametrize("direction", [1, -1])
def test_exact_scan_memory_is_its_output(direction):
    n = 2 * 10**5
    orbit_scan(HALF, A, 10, direction=direction, policy="exact")
    tracemalloc.start()
    try:
        orbit_scan(HALF, A, n, direction=direction, policy="exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output, 17 bytes per step, plus one chunk's temporaries of the
    # exact walk and cumsum's chunk-sized cast copy
    assert peak <= 17 * n + 2**20


def _reference_exact_scan(x0, alpha, count, direction):
    """The exact scan as a per-step loop: two integer adds a step and
    one scalar ``_surd_sign`` test per decision.  Kept as the reference
    for ``_exact_scan``."""
    if alpha.is_rational:
        raise ValueError("rotation number must be irrational")
    frame = Frame(x0, alpha, HALF)
    R, d = frame.R, frame.d
    P, Q = frame.embed(x0)
    Pa, Qa = frame.embed(alpha if direction == 1 else -alpha)
    Ph, _ = frame.embed(HALF)
    short = _surd_sign(Ph - direction * Pa, -direction * Qa, d) > 0

    sqd = math.sqrt(d)
    positions = np.empty(count, dtype=np.float64)
    signs = np.empty(count, dtype=np.int8)
    for i in range(count):
        positions[i] = (P + Q * sqd) / R
        left = _surd_sign(P - Ph, Q, d) < 0  # 1/2 itself is on the right
        signs[i] = 1 if left else -1
        P += Pa
        Q += Qa
        if direction == 1:
            if not (short and left) and _surd_sign(P - R, Q, d) >= 0:
                P -= R
        elif (left or not short) and _surd_sign(P, Q, d) < 0:
            P += R
    return positions, signs, np.empty(0, dtype=np.int64), 0.0


def _same_walk(got, ref):
    assert np.array_equal(got[1], ref[1])
    assert np.array_equal(got[0].view(np.uint64), ref[0].view(np.uint64))


@pytest.mark.parametrize("cf", ["[0;5,(6)]", "[0;1,(3)]"])  # alpha < 1/2, > 1/2
@pytest.mark.parametrize("direction", [1, -1])
def test_exact_walk_matches_the_loop_bit_for_bit(cf, direction):
    alpha = parse_cf(cf).value
    rng = np.random.default_rng(len(cf) + direction)
    # R = 2^40 is past the int64 bound: that seed walks on Python ints
    dyadic = [SurdReal(int(rng.integers(0, 2**k)), 0, 2**k) for k in (1, 7, 40)]
    surd = [((SurdReal(int(rng.integers(-50, 50))) + alpha * int(rng.integers(-50, 50)))
             / int(rng.integers(1, 30))).frac() for _ in range(3)]
    sizes = (0, 1, _EXACT_CHUNK - 1, _EXACT_CHUNK, _EXACT_CHUNK + 1, 3 * _EXACT_CHUNK + 5)
    step = alpha if direction == 1 else -alpha  # the loop takes alpha and direction
    for x0 in dyadic + surd:
        ref = _reference_exact_scan(x0, alpha, sizes[-1], direction)
        for n in sizes:
            _same_walk(_exact_scan(x0, step, n), [a[:n] for a in ref[:2]])


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_floor_twice_settles_guesses_off_by_one(dtype):
    alpha = parse_cf("[0;13,(20,6)]").value
    frame = Frame(HALF, alpha)
    R, d = frame.R, frame.d
    Pa, Qa = frame.embed(alpha)
    k = np.arange(-300, 300)
    P, Q = (k * Pa).astype(dtype), (k * Qa + 1).astype(dtype)
    exact = np.array([math.floor(2 * SurdReal(int(p), int(q), R, d)) for p, q in zip(P, Q)])
    for off in (-1, 0, 1):
        g = (exact + off).astype(dtype)
        assert np.array_equal(_floor_twice(P, Q, R, d, g), exact)
    with pytest.raises(ArithmeticError, match="off by more than 1"):
        _floor_twice(P, Q, R, d, (exact + 2).astype(dtype))


@pytest.mark.parametrize("cf", ["[0;5,(6)]", "[0;1,(3)]"])
@pytest.mark.parametrize("direction", [1, -1])
def test_exact_scan_settles_near_ties_bit_for_bit(cf, direction, monkeypatch):
    # a point within 2^-80 below 1/2 or 1 rounds to it as a float, so its
    # float guess of floor(2x) is one too high and only _floor_twice's
    # second round settles it; each tie is met at index 0 and again at the
    # first point of the second chunk, always on Python ints (R = 2^81)
    alpha = parse_cf(cf).value
    eps = SurdReal(1, 0, 2**80)
    n = _EXACT_CHUNK + 5
    calls = []

    def spy(P, Q, R, d, g):
        first = g[0]  # g is updated in place
        out = _floor_twice(P, Q, R, d, g)
        calls.append((P.dtype, out[0] != first))
        return out

    monkeypatch.setattr(rotn.scan, "_floor_twice", spy)
    for tie in (HALF - eps, 1 - eps, HALF + eps, eps):
        for lead in (0, _EXACT_CHUNK):
            x0 = (tie - alpha * (direction * lead)).frac()
            calls.clear()
            scan = orbit_scan(x0, alpha, n, direction=direction, policy="exact")
            _same_walk((scan.positions, scan.signs),
                       _reference_exact_scan(x0, alpha, n + 1, direction))
            assert [dtype for dtype, _ in calls] == [np.dtype(object)] * 2
            if tie in (HALF - eps, 1 - eps):  # the guess at the tie was moved
                assert calls[lead // _EXACT_CHUNK][1]


def test_exact_scan_crosses_from_int64_to_python_ints(monkeypatch):
    # d is about 1.2*10^8, so (2*max|Q|)^2 * d passes 2^62 near step 10^5
    alpha = parse_cf("[0;21,(30,28,26)]").value
    n = 100_000 + 3 * _EXACT_CHUNK
    dtypes = []

    def spy(P, *args):
        dtypes.append(P.dtype)
        return _floor_twice(P, *args)

    monkeypatch.setattr(rotn.scan, "_floor_twice", spy)
    for direction in (1, -1):
        dtypes.clear()
        scan = orbit_scan(HALF, alpha, n, direction=direction, policy="exact")
        switch = dtypes.index(np.dtype(object)) * _EXACT_CHUNK
        assert 0 < switch < n and set(dtypes[switch // _EXACT_CHUNK:]) == {np.dtype(object)}
        rng = np.random.default_rng(11)
        for i in rng.integers(0, n + 1, 200).tolist() + [switch - 1, switch, n]:
            x = (HALF + alpha * (direction * i)).frac()
            assert scan.signs[i] == (1 if x < HALF else -1), i
        # the loop from the exact point two chunks before the switch walks
        # the same lattice points, so its window must match bit for bit
        lo = switch - 2 * _EXACT_CHUNK
        start = (HALF + alpha * (direction * lo)).frac()
        ref = _reference_exact_scan(start, alpha, 4 * _EXACT_CHUNK, direction)
        _same_walk((scan.positions[lo:lo + 4 * _EXACT_CHUNK],
                    scan.signs[lo:lo + 4 * _EXACT_CHUNK]), ref)


@pytest.mark.parametrize("direction", [1, -1])
def test_exact_scan_past_float_range(direction):
    # R = 2^1100 is no float, so these chunks take float() of each exact point
    x0 = HALF + SurdReal(1, 0, 2**1100)
    scan = orbit_scan(x0, A, 10, direction=direction, policy="exact")
    exact = [(x0 + A * (direction * i)).frac() for i in range(11)]
    assert scan.positions.tobytes() == np.array([float(x) for x in exact]).tobytes()
    certified = orbit_scan(x0, A, 10, direction=direction)
    assert np.array_equal(scan.signs, certified.signs)
    assert np.array_equal(scan.sums, certified.sums)


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("cf, seed, n", [
    ("[0;(2)]", "1/2", 10**6),  # int64 chunks
    ("[0;5,(6)]", "1/2+2^-80", 5 * _EXACT_CHUNK),  # Python ints from the start
    ("[0;21,(30,28,26)]", "1/2", 110_000),  # int64, then Python ints
])
def test_exact_positions_lie_within_the_radius_bound(cf, seed, n, direction):
    # the formula (P + Q*sqrt(d))/R rounds, by more as |Q| grows with the
    # index, so the positions are not float() of the exact points
    alpha = parse_cf(cf).value
    x0 = {"1/2": HALF, "1/2+2^-80": HALF + SurdReal(1, 0, 2**80)}[seed]
    scan = orbit_scan(x0, alpha, n, direction=direction, policy="exact")
    radius = SurdReal.from_fraction(Fraction(scan.radius_bound))
    rng = np.random.default_rng(n)
    idx = np.unique(np.concatenate([np.arange(n - 99, n + 1), rng.integers(0, n + 1, 200)]))
    for i in idx.tolist():
        x = (x0 + alpha * (direction * i)).frac()
        gap = SurdReal.from_fraction(Fraction(scan.positions[i])) - x
        assert -radius <= gap <= radius, (i, float(gap), scan.radius_bound)
    if n == 10**6:
        assert scan.radius_bound < 1e-6


@pytest.mark.parametrize("seed", ["1/2", "(1+a)/2", "1/2+2^-80", "1/2-123457*a"])
def test_positions_at_indices_are_the_scans_bit_for_bit(seed):
    x0 = {"1/2": HALF, "(1+a)/2": (1 + A) / 2,
          "1/2+2^-80": HALF + SurdReal(1) / 2**80,
          "1/2-123457*a": (HALF - A * 123457).frac()}[seed]
    n = 3 * _CHUNK + 5
    scan = orbit_scan(x0, A, n)
    rng = np.random.default_rng(7)
    idx = np.unique(np.concatenate([[0, 1, _CHUNK - 1, _CHUNK, 123457, n],
                                    rng.integers(0, n + 1, 3 * _CHUNK)]))
    pos, escalated, radius = orbit_positions(x0, A, idx)
    assert np.array_equal(pos.view(np.uint64), scan.positions[idx].view(np.uint64))
    assert np.array_equal(escalated, np.intersect1d(scan.escalated, idx))
    assert radius == scan.radius_bound
    # the seeds at 1/2 are flagged at index 0; the last one reaches 1/2
    # at index 123457, where only the exact point rounds to 0.5
    flagged = {"1/2": 0, "1/2+2^-80": 0, "1/2-123457*a": 123457}.get(seed)
    if flagged is not None:
        assert flagged in escalated and pos[np.searchsorted(idx, flagged)] == 0.5
    # in any order, with negatives mixed in: the first chunk opens with the
    # flagged indices and closes with the smallest index, so a screen
    # radius read off a chunk's last index would be too small for them
    neg = -1 - rng.choice(n, 40, replace=False)
    mixed = np.concatenate([scan.escalated, rng.permutation(np.concatenate(
        [np.setdiff1d(np.arange(n + 1), scan.escalated), neg]))])
    low = int(np.argmin(mixed))
    mixed[[low, _CHUNK - 1]] = mixed[[_CHUNK - 1, low]]
    pos, escalated, radius = orbit_positions(x0, A, mixed)
    ahead = mixed >= 0
    assert np.array_equal(pos[ahead].view(np.uint64),
                          scan.positions[mixed[ahead]].view(np.uint64))
    assert np.array_equal(np.sort(escalated), scan.escalated)
    assert radius == scan.radius_bound
    assert pos[~ahead].tolist() == [float((x0 + A * i).frac()) for i in mixed[~ahead].tolist()]
    # indices below 0 are outside the radius model: exact points
    back, escalated, _ = orbit_positions(x0, A, np.array([-3, -1, 2]))
    assert back[:2].tolist() == [float((x0 + A * i).frac()) for i in (-3, -1)]
    assert back[2] == scan.positions[2]
    assert -3 not in escalated and -1 not in escalated


@pytest.mark.parametrize("n", [0, 1, _CHUNK, 3 * _CHUNK + 5])
def test_sums_histogram_is_the_word_histogram(n):
    # chunks reach different ranges of sums, and are binned each from its own
    sums = orbit_scan(HALF, A, n).sums[1:]
    lo, counts = sums_histogram(sums)
    want_lo, want = prefix_histogram(half_word(parse_cf("[0;5,(6)]"), n), n)
    assert lo == want_lo and counts.dtype == np.int64 and np.array_equal(counts, want)
    if n:
        assert np.array_equal(counts, np.bincount(sums - sums.min()))
    # values that skip a level leave a zero count
    lo, counts = sums_histogram(np.array([5, 2, 5, -1], dtype=np.int64))
    assert lo == -1 and counts.tolist() == [1, 0, 0, 1, 0, 0, 2]
