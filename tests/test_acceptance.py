"""End-to-end acceptance suite: one test per advertised guarantee.

Each test prints the quantities it measured, so a ``pytest -v -s`` run
doubles as a report.  Thresholds are frozen here; everything else is an
exact (zero tolerance) comparison.
"""

import random
import time

import numpy as np
import pytest

from rotn.circle import visit_set
from rotn.exactreal import SurdReal, parse_cf
from rotn.foliation import (
    example_alpha,
    example_point,
    trace_leaf_through,
    trace_ray,
)
from rotn.harness import ExperimentConfig, run
from rotn.renorm import fast_birkhoff, tower
from rotn.scan import orbit_scan, sums_histogram
from rotn.words import MINUS, PLUS, concat, expand, power, prefix_sum_at

ALPHAS = ("[0;5,(6)]", "[0;7,(6)]", "[0;5,8,(6)]")
A_CF = parse_cf("[0;5,(6)]")
A = A_CF.value
HALF = SurdReal(1, 0, 2)

# desk-scale density threshold, confirmed on the first full run and frozen
GAP_LIMIT = 0.02


@pytest.fixture(scope="module")
def half_scan():
    """Forward scan of the half-point orbit, shared by the big checks."""
    return orbit_scan(HALF, A, 10**7 + 1)


def test_1_return_words_match_direct_simulation():
    # three rotation numbers, tower levels 2..5, 100 fresh sample points
    # per case region per level; word and landing compared exactly
    t0 = time.time()
    for i, alpha in enumerate(ALPHAS):
        rep = run(ExperimentConfig(kind="oracle", alpha=alpha, depth=5, samples=100,
                                   seed=101 + i))
        assert rep["ok"], alpha
        assert rep["matches"] == rep["total"] == 4 * 3 * 100
        assert {r["level"] for r in rep["regions"]} == {2, 3, 4, 5}
    print("3600 return words matched exactly in %.1fs" % (time.time() - t0))


def test_2_prefix_extrema_inequalities_to_level_40():
    for alpha in ALPHAS:
        rep = run(ExperimentConfig(kind="tower", alpha=alpha, depth=40))
        assert rep["ok"], alpha
        bad = [row for row in rep["bounds"] + rep["chains"] if not row["ok"]]
        assert bad == [], (alpha, bad)
        deep = tower(parse_cf(alpha), 40)[-1]
        lo, hi = deep.f_minus.min_prefix, deep.f_minus.max_prefix
        assert lo <= -40 and hi >= 40, (alpha, lo, hi)
        print("%-12s level-40 minus-word prefix range [%d, %d], %d checks"
              % (alpha, lo, hi, len(rep["bounds"]) + len(rep["chains"])))


def test_3_half_orbit_fills_every_nearby_level(half_scan):
    worst = 0.0
    for m in range(-3, 4):
        for k in (0, 1):
            far = visit_set(HALF, A, m, 10**7, k=k, scan=half_scan)
            near = visit_set(HALF, A, m, 10**5, k=k, scan=half_scan)
            assert far.count > 0, (m, k)
            g7, g5 = far.max_gap(), near.max_gap()
            assert g7 < GAP_LIMIT, (m, k, g7)
            assert g7 < g5, (m, k, g7, g5)
            worst = max(worst, g7)
    print("14 visit sets nonempty; worst gap at 10^7 is %.6f < %.2f"
          % (worst, GAP_LIMIT))


def test_4_example_orbit_caps_at_minus_one_and_mirrors():
    for m in (2, 3):
        rep = run(ExperimentConfig(kind="example", m=m, k_max=10, N=10**6))
        assert rep["ok"], m
        assert rep["max_forward_sum"] == -1
        assert rep["symmetric_sums"] and rep["witness_prefix_ok"]
        assert rep["formulas_ok"]
        assert set(rep["block_maxima"]) == {-1}
        print("m=%d: forward max -1 over 10^6, mirror to 10^5, "
              "%d formula rows" % (m, len(rep["rows"])))


def test_5_tower_birkhoff_shortcut_matches_scan(half_scan):
    rng = random.Random(424242)
    picks = rng.sample(range(1, 10**6 + 1), 10**4)
    for alpha in ("[0;5,(6)]", "[0;5,8,(6)]"):
        cf = parse_cf(alpha)
        scan = half_scan if alpha == ALPHAS[0] else orbit_scan(
            HALF, cf.value, 10**6)
        for n in picks:
            assert fast_birkhoff(cf, n) == scan.sums[n], (alpha, n)
        exact = orbit_scan(HALF, cf.value, 10**3, policy="exact").sums
        for n in range(1, 10**3 + 1):
            got = fast_birkhoff(cf, n)
            assert got == scan.sums[n] == exact[n], n
        print("%-12s 10^4 random n <= 10^6 plus all n <= 10^3 agree" % alpha)


def test_6_doubling_alpha_orbit_stays_strictly_negative():
    rep = run(ExperimentConfig(kind="heavy", alpha="[0;(2)]", N=10**6))
    assert rep["ok"] and rep["violations"] == 0
    assert rep["max_sum"] <= -1
    print("[0;(2)]: S_n(1/2) in [%d, %d] for n <= 10^6, zero violations"
          % (rep["min_sum"], rep["max_sum"]))


def test_7_leaf_tracer_entry_law_and_level_visits():
    # expected entries once: x_n = t^(n-1)(1/2), s_n = S_n(1/2), exactly
    N = 10**5
    xs, sums = [], []
    p, s = HALF, 0
    for _ in range(N):
        s += 1 if p < HALF else -1
        xs.append(p)
        sums.append(s)
        p = (p + A).frac()
    for i in (-2, -1, 0, 1, 2):
        tr = trace_ray(i, A, N, policy="exact")
        assert tr.exact_x == xs, i
        assert np.array_equal(tr.entry_level,
                              i + 1 + np.asarray(sums, dtype=np.int64)), i
    print("entry law exact for rays -2..2 over n <= 10^5")

    x0 = example_point(example_alpha(2))
    top = max(
        trace_leaf_through(x0, 0, A, N, direction=d).entry_level.max()
        for d in (1, -1)
    )
    assert top <= 0
    print("leaf through ((1+a)/2, 0) peaks at level %d over 10^5 both ways"
          % top)

    lo, counts = sums_histogram(trace_ray(0, A, 10**7).entry_level)
    visited = set((np.flatnonzero(counts) + lo).tolist())
    assert set(range(-5, 6)) <= visited
    print("ray r_0 visits levels %d..%d within 10^7"
          % (min(visited), max(visited)))


def _random_word(rng, budget):
    if budget < 2 or rng.random() < 0.3:
        return PLUS if rng.random() < 0.5 else MINUS
    if rng.random() < 0.5:
        e = rng.randint(2, min(6, budget))
        return power(_random_word(rng, budget // e), e)
    left = _random_word(rng, budget // 2)
    return concat(left, _random_word(rng, budget - left.length))


def test_8_lazy_word_stats_match_explicit_expansion():
    rng = random.Random(20260817)
    letters = 0
    for _ in range(1000):
        w = _random_word(rng, rng.randint(1, 10**4))
        flat = np.asarray(expand(w), dtype=np.int64)
        letters += flat.size
        cum = np.cumsum(flat)
        assert w.length == flat.size
        assert w.total == cum[-1]
        assert w.max_prefix == cum.max() and w.min_prefix == cum.min()
        assert prefix_sum_at(w, 0) == 0
        for k in rng.sample(range(1, flat.size + 1), min(20, flat.size)):
            assert prefix_sum_at(w, k) == cum[k - 1]
    print("1000 random words, %d letters, stats and prefix sums exact"
          % letters)
