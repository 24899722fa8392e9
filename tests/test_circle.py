"""Rotation orbits, the sign cocycle, visit sets, circular gaps."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotn.circle import VisitSet, max_gap, visit_set
from rotn.cli import main
from rotn.exactreal import HALF, SurdReal, parse_cf
from rotn.scan import orbit_scan

ALPHA = parse_cf("[0;5,(6)]")
A = ALPHA.value
X = (1 + A) / 2


def _f(x):
    return 1 if x.frac() < HALF else -1


def _sum(x, n):
    """S_n(x) for signed n, from the exact scan."""
    scan = orbit_scan(x, A, abs(n), direction=1 if n >= 0 else -1, policy="exact")
    return int(scan.sums[-1])


def test_rotate_frozen():
    # 3a = (sqrt(10) - 2)/2, so 1/2 + 3a wraps to (sqrt(10) - 3)/2
    assert (HALF + A * 3).frac() == (SurdReal.root(10) - 3) / 2
    assert abs(float((HALF + A * 3).frac()) - 0.08113883008418966) < 1e-15
    assert (HALF + A * 0).frac() == HALF
    assert ((HALF + A * 5).frac() + A * -5).frac() == HALF


def test_sign_convention():
    assert _f(SurdReal(0)) == 1
    assert _f(SurdReal(49, 0, 100)) == 1
    assert _f(HALF) == -1  # the half-open split puts 1/2 on the right
    assert _f(SurdReal(99, 0, 100)) == -1


def test_birkhoff_frozen():
    assert _sum(HALF, 0) == 0
    assert _sum(HALF, 4) == -2
    signs = [_f(HALF + A * n) for n in range(4)]
    assert signs == [-1, -1, -1, 1]
    assert _sum(X, 7) == -3
    assert _sum(X, -7) == -3


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40), st.fractions(0, 1, max_denominator=97))
def test_cocycle_property(m, n, x0):
    x = SurdReal.from_fraction(x0).frac()
    lhs = _sum(x, m + n)
    rhs = _sum(x, m) + _sum((x + A * m).frac(), n)
    assert lhs == rhs


def test_backward_orbit_symmetry():
    # this seed's backward orbit mirrors its forward orbit around 1/2
    for n in range(1, 400):
        assert (X + A * -(n + 1)).frac() == (1 - (X + A * n).frac()).frac()
    for n in range(1, 120):
        assert _sum(X, -n) == _sum(X, n)


def test_visit_set_against_hand_loop():
    N = 300
    sums = {0: 0}
    x, s = HALF, 0
    for n in range(1, N + 1):
        s += _f(x)
        x = (x + A).frac()
        sums[n] = s
    for m in (-2, -1, 0, 1):
        vs = visit_set(HALF, A, m, N)
        want = [n for n in range(N + 1) if sums[n] == m]
        assert list(vs.times) == want
        assert vs.count == len(want)
        assert vs.times[:1].tolist() == want[:1]  # the first visit, if any


def test_visit_set_positions_shift_by_k():
    vs0 = visit_set(HALF, A, 0, 2000, k=0)
    vs1 = visit_set(HALF, A, 0, 2000, k=1)
    assert np.array_equal(vs0.times, vs1.times)  # k moves positions, not times
    x5 = float((HALF + A * int(vs0.times[5])).frac())
    assert abs(vs0.positions[5] - x5) <= vs0.position_radius
    y5 = float((HALF + A * (int(vs0.times[5]) + 1)).frac())
    assert abs(vs1.positions[5] - y5) <= vs1.position_radius


def test_visit_set_negative_k():
    vs = visit_set(HALF, A, 0, 50, k=-3)
    x0 = float((HALF + A * -3).frac())  # time 0 looks 3 steps back
    assert abs(vs.positions[0] - x0) < 1e-12


@pytest.mark.parametrize("k", [-3, 0, 2])
def test_visit_set_reads_the_scan_at_n_plus_k(k):
    N = 3000
    for policy in ("certified", "exact"):
        scan = orbit_scan(HALF, A, N + 2, policy=policy)
        vs = visit_set(HALF, A, 0, N, k=k, scan=scan)
        want = [n for n in range(N + 1) if scan.sums[n] == 0]
        shifted = [scan.positions[n + k] if n + k >= 0
                   else float((HALF + A * (n + k)).frac()) for n in want]
        assert vs.times.dtype == np.int64
        assert vs.times.tolist() == want
        assert vs.positions.tolist() == shifted
        assert vs.escalations == scan.escalated.size  # the exact lookups are not counted


def test_visit_set_trivial_cases():
    vs = visit_set(HALF, A, 0, 0)
    assert vs.count == 1 and max_gap(vs.positions) == 1.0
    assert visit_set(HALF, A, -1, 10).times[0] == 1  # f(1/2) = -1
    assert visit_set(HALF, A, 5, 10).count == 0
    with pytest.raises(ValueError):
        visit_set(HALF, A, 0, -1)


def test_visit_set_refuses_a_scan_of_another_orbit():
    N = 50
    others = [orbit_scan((1 + A) / 2, A, N), orbit_scan(HALF, parse_cf("[0;7,(8,10)]").value, N),
              orbit_scan(HALF, A, N, direction=-1), orbit_scan(HALF, A, N - 1)]
    for scan in others:
        with pytest.raises(ValueError, match="supplied scan"):
            visit_set(HALF, A, -1, N, scan=scan)
    # the scan's start is reduced mod 1, so an unreduced x names the same orbit
    vs = visit_set(HALF + 3, A, -1, N, scan=orbit_scan(HALF, A, N))
    assert vs.times.tolist() == visit_set(HALF, A, -1, N).times.tolist()


def test_max_gap():
    assert max_gap([0.5]) == 1.0
    assert max_gap([0.25, 0.75]) == 0.5
    assert max_gap([0.1, 0.2, 0.9]) == pytest.approx(0.7)
    assert max_gap(np.array([0.9, 0.1, 0.2])) == pytest.approx(0.7)  # order-free
    with pytest.raises(ValueError):
        max_gap([])
    with pytest.raises(ValueError):
        max_gap([1.25])


@pytest.mark.parametrize("m, k", [(0, 0), (1, 2), (-2, -1), (40, 0)])
def test_max_gaps_equal_max_gap_of_each_horizon(m, k):
    N = 50000
    vs = visit_set(HALF, A, m, N, k=k)
    horizons = [0, 1, 10, 99, 100, 1000, 12345, 49999, N]
    want = [max_gap(vs.positions[vs.times <= h]) if np.any(vs.times <= h) else np.nan
            for h in horizons]
    # bit for bit: nan == nan in this form
    assert [np.float64(g).tobytes() for g in vs.max_gaps(horizons)] \
        == [np.float64(g).tobytes() for g in want]
    if vs.count:
        assert max_gap(vs.positions) == want[-1]


def test_max_gaps_check_the_range():
    vs = visit_set(HALF, A, 0, 100)
    vs.positions[3] = 1.0
    with pytest.raises(ValueError):
        vs.max_gaps([10])
    with pytest.raises(ValueError):
        max_gap(visit_set(HALF, A, 5, 10).positions)  # no visits
    # the sorting route (5 points) and the bucket route (2^12 + 5) alike,
    # with a bad point first, in the middle and last
    for n in (5, (1 << 12) + 5):
        for bad in (-1e-300, 1.0, np.nan):
            for i in (0, n // 2, n - 1):
                points = np.random.default_rng(n).random(n)
                points[i] = bad
                with pytest.raises(ValueError, match="must lie in"):
                    max_gap(points)
                vs = VisitSet(np.arange(n), points, 0.0, 0)
                with pytest.raises(ValueError, match="must lie in"):
                    vs.max_gaps([0])  # all the points are checked, whichever the horizons


def _sorted_max_gap(points):
    """The largest circular gap, from one full sort."""
    s = np.sort(np.asarray(points, dtype=np.float64))
    if s.size == 1:
        return 1.0
    return max(1.0 - s[-1] + s[0], np.max(np.diff(s)))


def _bits(x):
    return np.float64(x).tobytes()


def _point_set(kind, n, seed):
    """n points of [0, 1) of the given shape."""
    rng = np.random.default_rng(seed)
    if kind == "clustered":  # a few blurred clusters: long empty runs between them
        centres = rng.random(rng.integers(1, 12))
        spread = rng.choice([1e-5, 1e-3, 1e-2])
        p = (centres[rng.integers(0, centres.size, n)] + rng.normal(0, spread, n)) % 1.0
        return np.where(p < 1.0, p, 0.0)  # -tiny % 1.0 rounds to 1.0
    if kind == "tight":  # one cluster: the largest gap is the wrap
        return (rng.random() + rng.random(n) * 2.0**-30) % 1.0
    if kind == "bucket edges":  # k/B for _gap's own B, duplicated, with an empty arc
        B = 1 << max(n.bit_length() - 3, 1)
        a, b = np.sort(rng.integers(0, B, 2))
        k = rng.integers(0, B - (b - a), n)
        k[k >= a] += b - a
        k[: n // 3] = k[n // 3: 2 * (n // 3)]
        return k / B
    if kind == "runs" and n >= 256:
        # every bucket of _gap's B holds its centre but for 2 to 9 empty runs,
        # at distance D or D - 1 in turn: across a run of D the points hug
        # it, across one of D - 1 they keep away, so the shorter runs hold
        # the larger gaps, by less than 1/B
        B = 1 << (n.bit_length() - 3)
        runs = int(rng.integers(2, 10))
        width = B // runs
        D = int(rng.integers(3, min(20, width - 1) + 1))
        keep, off = np.ones(B, dtype=bool), np.full(B, 0.5)
        for j in range(runs):
            L = j * width + int(rng.integers(0, width - D))
            R = L + D - j % 2
            keep[L + 1:R] = False
            off[L], off[R] = (1.0 - 2.0**-20, 0.0) if R - L == D else (0.0, 1.0 - 2.0**-20)
        k = np.flatnonzero(keep)
        k = np.concatenate([k, rng.choice(k, n - k.size)])
        return (k + off[k]) / B
    if kind == "ends":  # points near 0 and just below 1, the largest gap inside
        near = rng.random(n) * rng.choice([1e-6, 1e-3, 0.1])
        p = np.where(rng.random(n) < 0.5, near, 1.0 - near)
        return np.minimum(p, np.nextafter(1.0, 0.0))
    return rng.random(n)  # "uniform", and "runs" of too few points


_KINDS = ["uniform", "clustered", "tight", "bucket edges", "runs", "ends"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_KINDS),
       st.one_of(st.sampled_from([2**12 - 1, 2**12, 2**12 + 1]), st.integers(1, 40000)),
       st.integers(0, 2**32))
def test_gaps_are_the_full_sorts_bit_for_bit(kind, n, seed):
    points = _point_set(kind, n, seed)
    assert points.size == n and np.all((0.0 <= points) & (points < 1.0))
    assert _bits(max_gap(points)) == _bits(_sorted_max_gap(points))
    # max_gaps takes each horizon's prefix, in time order
    vs = VisitSet(times=np.arange(n, dtype=np.int64) * 3, positions=points,
                  position_radius=0.0, escalations=0)
    horizons = [-1, 0, 3 * (n // 10), 3 * (n // 2) + 1, 3 * (n - 1)]
    want = [np.nan if h < 0 else _sorted_max_gap(points[: h // 3 + 1]) for h in horizons]
    assert [_bits(g) for g in vs.max_gaps(horizons)] == [_bits(g) for g in want]


def test_a_tower_visit_set_is_not_sorted_whole(monkeypatch, capsys):
    # every horizon of 2^12 visits or more takes the bucket route: no sort
    # in the whole run sees 2^12 points, only those of a few buckets
    sorted_sizes = []
    sort = np.sort

    def spy(a, *args, **kwargs):
        sorted_sizes.append(np.size(a))
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", spy)
    assert main(["density", "--N", "5000000", "--m", "2"]) == 0
    monkeypatch.undo()
    rep = json.loads(capsys.readouterr().out)
    assert rep["signs"] == "tower" and rep["count"] > 250_000
    large = [r["count"] for r in rep["horizons"] if r["count"] >= 2**12]
    assert len(large) >= 2
    assert sorted_sizes and max(sorted_sizes) < 2**12


# ---------------------------------------------------------------------------
# public names


def test_every_listed_name_exists():
    import importlib
    import pkgutil

    import rotn

    names = ["rotn"] + ["rotn." + m.name for m in pkgutil.iter_modules(rotn.__path__)]
    listed = 0
    for name in names:
        module = importlib.import_module(name)
        for public in getattr(module, "__all__", ()):
            assert hasattr(module, public), (name, public)
            listed += 1
    assert listed > 0
    # exact points are plain SurdReals: no point wrapper or orbit helper is listed
    assert sorted(importlib.import_module("rotn.circle").__all__) \
        == ["VisitSet", "max_gap", "visit_set"]
