"""The scan kernel, certified-vs-exact agreement, escalation."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotn.scan
from rotn.exactreal import CFNumber, Frame, SurdReal, _surd_sign, escalations, parse_cf
from rotn.renorm import half_word
from rotn.scan import (
    _CHUNK, _KEY_CHUNK, _WALK_CHUNK, _exact_scan, _key_band, _scan_radii, backend_name,
    exact_sums, key_signs, kernel_for, orbit_positions, orbit_scan, scan_kernel, sums_histogram,
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


def test_a_frac_that_rounds_to_1_is_position_0_and_flagged():
    # x0 + 0*alpha = -2^-60: frac is 1 - 2^-60, which rounds to 1.0
    pos, signs, amb = scan_kernel(-2.0**-60, 0.25, 3, 2.0**-51, 2.0**-51)
    assert pos[0] == 0.0 and signs[0] == 1
    assert 0 in amb.tolist()


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
    # R = 2^62 puts the lattice points past int64: that seed walks on Python ints
    dyadic = [SurdReal(int(rng.integers(0, 2**k)), 0, 2**k) for k in (1, 7, 40, 62)]
    surd = [((SurdReal(int(rng.integers(-50, 50))) + alpha * int(rng.integers(-50, 50)))
             / int(rng.integers(1, 30))).frac() for _ in range(3)]
    c = _WALK_CHUNK
    sizes = (0, 1, c - 1, c, c + 1, 2 * c + 5)
    step = alpha if direction == 1 else -alpha  # the loop takes alpha and direction
    for x0 in dyadic + surd:
        ref = _reference_exact_scan(x0, alpha, sizes[-1], direction)
        for n in sizes:
            _same_walk(_exact_scan(x0, step, n), [a[:n] for a in ref[:2]])


def _open_keys(X, lo):
    """The offsets j whose key X[j] lies within lo + j + 1 below 2^63 or
    2^64, by the definition, one Python int at a time."""
    return [j for j, x in enumerate(X.tolist())
            if 1 <= (1 << 63) - x % (1 << 63) <= lo + j + 1]


@pytest.mark.parametrize("lo", [0, 5, _KEY_CHUNK])
def test_key_band_is_every_key_within_its_width_below_a_boundary(lo):
    # keys at and around both edges of each band, and random ones; the
    # signs are +1 exactly below 2^63, whatever the band says
    rng = np.random.default_rng(lo)
    m = 600
    near = [b - w for b in (1 << 63, 1 << 64) for w in range(0, lo + m + 3)]
    X = np.array(rng.choice(near, m).tolist(), dtype=np.uint64)
    X[::7] = rng.integers(0, 2**64 - 1, X[::7].size, dtype=np.uint64, endpoint=True)
    X[:4] = [2**63 - 1, 2**64 - 1, 2**63, 0]  # just below a boundary, and on one
    want_signs = [1 if x < 2**63 else -1 for x in X.tolist()]
    want = _open_keys(X, lo)
    s, b = np.empty(m, dtype=np.int8), np.empty(m, dtype=bool)
    got = _key_band(X, s, b, lo)
    assert got.dtype == np.int64 and got.tolist() == want
    assert s.tolist() == want_signs
    assert want[:2] == [0, 1] and 2 not in want and 3 not in want


def _widened(every):
    """``_key_band`` with its band widened to every every-th offset as well."""
    def band(X, s, b, lo):
        return np.union1d(_key_band(X, s, b, lo), np.arange(0, X.size, every))
    return band


@pytest.mark.parametrize("cf, seed", [
    ("[0;5,(6)]", "1/2"), ("[0;1,(3)]", "1/2+2^-80"), ("[0;21,(30,28,26)]", "(1+a)/2"),
    ("[0;7,10,(8,12)]", "1/2-3a"),
])
@pytest.mark.parametrize("direction", [1, -1])
def test_exact_scan_with_a_widened_band_is_the_loop_bit_for_bit(cf, seed, direction, monkeypatch):
    # every third key of each chunk, its first among them, takes the exact
    # floor and sign of its point: the walk must not change a bit, and
    # takes no escalation, as it certified nothing
    alpha = parse_cf(cf).value
    x0 = {"1/2": HALF, "1/2+2^-80": HALF + SurdReal(1, 0, 2**80), "(1+a)/2": (1 + alpha) / 2,
          "1/2-3a": (HALF - alpha * 3).frac()}[seed]
    n = 2 * _WALK_CHUNK + 5
    ref = _reference_exact_scan(x0, alpha, n + 1, direction)
    monkeypatch.setattr(rotn.scan, "_key_band", _widened(3))
    before = escalations.count
    scan = orbit_scan(x0, alpha, n, direction=direction, policy="exact")
    _same_walk((scan.positions, scan.signs), ref)
    assert scan.escalated.size == 0 and escalations.count == before
    got = exact_sums(x0, alpha * direction, n, n)
    assert escalations.count == before
    monkeypatch.undo()
    _same_sums(got, _scanned_sums(x0, alpha * direction, n, n))


@pytest.mark.parametrize("cf", ["[0;5,(6)]", "[0;1,(3)]"])
@pytest.mark.parametrize("direction", [1, -1])
def test_exact_scan_settles_near_ties_bit_for_bit(cf, direction, monkeypatch):
    # a point within 2^-80 of 1/2 or of an integer keys within k + 1 of
    # 2^63 or 2^64 at offset k of its chunk; below a boundary that is the
    # band, where only the exact floor and sign of the point settle it.
    # Each tie is met at the first point of the first and the second chunk,
    # keyed exactly, and at offset 5 of each, always on Python ints
    # (R = 2^81).  Just above an integer at offset 5, the key may sit below
    # 2^64 and miss the wrap, so the floor must come from the point
    alpha = parse_cf(cf).value
    eps = SurdReal(1, 0, 2**80)
    n = _WALK_CHUNK + 5
    bands = []

    def spy(X, s, b, lo):
        bands.append(_key_band(X, s, b, lo).tolist())
        return np.array(bands[-1], dtype=np.int64)

    monkeypatch.setattr(rotn.scan, "_key_band", spy)
    for tie in (HALF - eps, 1 - eps, HALF + eps, eps):
        for lead in (0, 5, _WALK_CHUNK, _WALK_CHUNK + 5):
            x0 = (tie - alpha * (direction * lead)).frac()
            bands.clear()
            scan = orbit_scan(x0, alpha, n, direction=direction, policy="exact")
            _same_walk((scan.positions, scan.signs),
                       _reference_exact_scan(x0, alpha, n + 1, direction))
            assert len(bands) == 2 and scan.escalated.size == 0
            chunk, k = divmod(lead, _WALK_CHUNK)
            if tie in (HALF - eps, 1 - eps):  # keyed below its boundary
                assert k in bands[chunk]
            elif k == 0:  # keyed on it, exactly
                assert k not in bands[chunk]


def test_exact_scan_crosses_from_int64_to_python_ints(monkeypatch):
    # from 1/2 + 2^-47 (R = 3*2^48 on [0;5,(6)]) the lattice arithmetic of
    # the first chunks fits int64, and |Q|, growing by Qa a step, takes it
    # to Python ints at the fourth; from 1/2 + 2^-80 it is on Python ints
    # from the start.  The keys stay uint64 either way
    alpha = parse_cf("[0;5,(6)]").value
    dtypes = []
    honest = rotn.scan._lattice

    def spy(*args):
        points = honest(*args)
        dtypes.append(points[0].dtype)
        return points

    monkeypatch.setattr(rotn.scan, "_lattice", spy)
    c = _WALK_CHUNK
    for direction, (k, chunks) in itertools.product((1, -1), ((47, 6), (80, 4))):
        x0 = HALF + SurdReal(1, 0, 2**k)
        dtypes.clear()
        scan = orbit_scan(x0, alpha, chunks * c - 1, direction=direction, policy="exact")
        assert len(dtypes) == chunks
        switch = dtypes.index(np.dtype(object)) * c
        assert set(dtypes[switch // c:]) == {np.dtype(object)}
        assert switch == (3 * c if k == 47 else 0)
        # the loop from the exact point a chunk before the switch walks the
        # same lattice points, so its window must match bit for bit
        lo = max(switch - c, 0)
        start = (x0 + alpha * (direction * lo)).frac()
        ref = _reference_exact_scan(start, alpha, 2 * c, direction)
        _same_walk((scan.positions[lo:lo + 2 * c], scan.signs[lo:lo + 2 * c]), ref)
        rng = np.random.default_rng(k)
        for i in rng.integers(0, chunks * c, 100).tolist() + [max(switch - 1, 0), switch]:
            x = (x0 + alpha * (direction * i)).frac()
            assert scan.signs[i] == (1 if x < HALF else -1), i


def _scanned_sums(x0, alpha, n, keep):
    """What ``exact_sums`` folds, read off the exact scan of n steps."""
    scan = orbit_scan(x0, alpha, n, policy="exact")
    return (*sums_histogram(scan.sums[1:]), int(scan.sums[-1]), scan.signs[:keep])


def _same_sums(got, want):
    lo, counts, final, signs = got
    assert (lo, final) == (want[0], want[2])
    assert counts.dtype == np.int64 and np.array_equal(counts, want[1])
    assert signs.dtype == np.int8 and np.array_equal(signs, want[3])


@pytest.mark.parametrize("fold_parts", [None, 2])
@pytest.mark.parametrize("cf", ["[0;5,(6)]", "[0;1,(3)]", "[0;(2)]", "[0;7,10,(8,12)]"])
def test_exact_sums_fold_the_exact_scan(cf, fold_parts, monkeypatch):
    # the histogram, S_n and the kept signs at the chunk's edges, from
    # starts on int64 and (R = 2^81) on Python ints, one outside [0, 1);
    # with fold_parts 2 the chunks' histograms are added up every 2 chunks
    if fold_parts:
        monkeypatch.setattr(rotn.scan, "_FOLD_PARTS", fold_parts)
    alpha = parse_cf(cf).value
    c = _WALK_CHUNK
    for x0 in (HALF, (1 + alpha) / 2, alpha * 7 - 2, HALF + SurdReal(1, 0, 2**80)):
        for n in (0, 1, c - 1, c, c + 1, 3 * c + 5):
            for keep in {0, min(n, 5), n}:
                _same_sums(exact_sums(x0, alpha, n, keep), _scanned_sums(x0, alpha, n, keep))
    with pytest.raises(ValueError, match="keep"):
        exact_sums(HALF, alpha, 10, 11)


def test_exact_sums_fold_across_the_switch_to_python_ints():
    # the starts of test_exact_scan_crosses_from_int64_to_python_ints: the
    # fold re-keys each chunk from its first point, on Python ints where
    # the scan's lattice arithmetic passes int64, and forms no position
    alpha = parse_cf("[0;5,(6)]").value
    for step, (k, chunks) in itertools.product((alpha, -alpha), ((47, 6), (80, 4))):
        x0, n = HALF + SurdReal(1, 0, 2**k), chunks * _WALK_CHUNK - 1
        _same_sums(exact_sums(x0, step, n, n), _scanned_sums(x0, step, n, n))


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
    ("[0;5,(6)]", "1/2+2^-80", 20480),  # Python ints from the start
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


@pytest.mark.parametrize("shift", [0, 3, -5])
def test_a_shift_is_the_shifted_indices(shift):
    # shuffled over several chunks; -8..7 holds the index the shift takes to
    # 0, where the radius test flags 1/2, and indices the shift leaves or
    # takes below 0 (0..4 for shift -5), which get exact points
    n = 3 * _CHUNK + 5
    rng = np.random.default_rng(11)
    idx = rng.permutation(np.concatenate([np.arange(-8, 8), rng.integers(0, n, 3 * _CHUNK)]))
    pos, escalated, radius = orbit_positions(HALF, A, idx, shift)
    want_pos, want_escalated, want_radius = orbit_positions(HALF, A, idx + shift)
    assert np.array_equal(pos.view(np.uint64), want_pos.view(np.uint64))
    assert np.array_equal(escalated, want_escalated) and 0 in escalated
    assert radius == want_radius
    assert orbit_positions(HALF, A, idx[:0], shift)[2] == orbit_positions(HALF, A, idx[:0])[2]


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


def test_positions_refuse_indices_that_are_not_integers():
    # a float index names a point no scan has: frac(1/2 + 1.5*alpha)
    for indices in (np.array([1.5]), np.array([1.0]), np.array([True])):
        with pytest.raises(ValueError, match="integer.*%s" % indices.dtype):
            orbit_positions(HALF, A, indices)
    assert orbit_positions(HALF, A, np.array([1], dtype=np.uint8))[0][0] \
        == orbit_scan(HALF, A, 1).positions[1]


# ---------------------------------------------------------------------------
# key_signs: signs off the 64-bit key mod 1


@settings(max_examples=60, deadline=None)
@given(pre=st.lists(st.integers(1, 12), max_size=2),
       period=st.lists(st.integers(1, 12), min_size=1, max_size=3),
       a=st.fractions(0, 1, max_denominator=10**4), b=st.integers(-50, 50),
       n=st.integers(0, 10**5), direction=st.sampled_from([1, -1]))
def test_key_signs_are_the_exact_scans(pre, period, a, b, n, direction):
    # any continued fraction, admissible or not, any start in its field
    alpha = CFNumber(tuple(pre), tuple(period)).value
    x0 = (SurdReal.from_fraction(a) + alpha * b).frac()
    signs, undecided = key_signs(x0, alpha * direction, n + 1)
    exact = orbit_scan(x0, alpha, n, direction=direction, policy="exact")
    assert signs.dtype == np.int8 and np.array_equal(signs, exact.signs)
    assert undecided.dtype == np.int64 and undecided.size <= n + 1


def _keyed(x0, step, n):
    """key_signs(x0, step, n), the escalations it counted, and the exact signs."""
    before = escalations.count
    signs, undecided = key_signs(x0, step, n)
    exact = [1 if (x0 + step * i).frac() < HALF else -1 for i in range(n)]
    return signs, undecided, escalations.count - before, exact


def test_key_signs_decide_a_key_on_a_boundary():
    # 1/2 keys as 2^63 exactly: x_0 = 1/2 is no point below 1/2, so -1
    signs, undecided, counted, exact = _keyed(HALF, A, 300)
    assert signs[0] == -1 and undecided.size == counted == 0
    assert signs.tolist() == exact
    # 2^-80 keys as 0, and [0, 1) reaches no boundary above it: +1
    signs, undecided, counted, exact = _keyed(SurdReal(1, 0, 2**80), A, 300)
    assert signs[0] == 1 and undecided.size == counted == 0
    assert signs.tolist() == exact


@pytest.mark.parametrize("x0, sign", [(HALF - SurdReal(1, 0, 2**80), 1),
                                      (1 - SurdReal(1, 0, 2**80), -1)],
                         ids=["below 1/2", "below 1"])
def test_key_signs_resolve_a_key_within_the_band_at_index_0(x0, sign):
    # floor(x0*2^64) = 2^63 - 1 or 2^64 - 1, within 1 below the boundary
    signs, undecided, counted, exact = _keyed(x0, A, 300)
    assert undecided.tolist() == [0] and counted == 1
    assert signs[0] == sign and signs.tolist() == exact


_TINY = SurdReal(1, 0, 2**80)


@pytest.mark.parametrize("target, sign", [
    (HALF - _TINY, 1), (HALF, -1), (HALF + _TINY, -1), (1 - _TINY, -1), (_TINY, 1),
], ids=["below 1/2", "1/2", "above 1/2", "below 1", "above 0"])
@pytest.mark.parametrize("direction", [1, -1])
def test_key_signs_resolve_a_key_within_the_band_in_a_later_chunk(target, sign, direction):
    # x_i is the target at i = _KEY_CHUNK + 5, and X_i is at most the
    # target's floor(x*2^64) and above it less i + 1: in the band below the
    # boundary unless both sit on it.  Just above a boundary the key falls
    # below it, on the wrong side, and only the exact test gets it right
    i = _KEY_CHUNK + 5
    step = A * direction
    x0 = (target - step * i).frac()
    signs, undecided, counted, _ = _keyed(x0, step, 0)  # n = 0: no key at all
    assert signs.size == undecided.size == counted == 0
    before = escalations.count
    signs, undecided = key_signs(x0, step, 3 * _KEY_CHUNK)
    assert i in undecided.tolist() and escalations.count - before == undecided.size
    assert signs[i] == sign
    exact = orbit_scan(x0, A, 3 * _KEY_CHUNK - 1, direction=direction, policy="exact")
    assert np.array_equal(signs, exact.signs)
