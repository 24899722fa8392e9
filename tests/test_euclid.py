"""Euclid's sign word of any orbit, against the exact scan and the tower."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotn import euclid
from rotn.euclid import sign_word
from rotn.exactreal import HALF, ONE, SurdReal, parse_cf
from rotn.renorm import fast_birkhoff, half_word
from rotn.scan import exact_sums, orbit_scan
from rotn.words import EMPTY, letters, prefix_histogram, prefix_sum_at


def _cf(preperiod, period):
    head = "".join("%d," % c for c in preperiod)
    return parse_cf("[0;%s(%s)]" % (head, ",".join(map(str, period))))


def _exact_signs(x, step, n):
    # orbit_scan gives the n + 1 signs of indices 0..n
    return orbit_scan(x.frac(), step, n, policy="exact").signs[:n]


@st.composite
def orbits(draw):
    """(step, start, n): a random continued fraction, either direction, and
    a start on the orbit of 1/2 or of 0, or any point of the field, often
    outside [0, 1)."""
    cf = _cf(draw(st.lists(st.integers(1, 12), max_size=3)),
             draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))
    a = cf.value
    step = draw(st.sampled_from([a, -a]))
    k = draw(st.integers(-5, 5))
    kind = draw(st.sampled_from(["half", "zero", "field"]))
    if kind == "half":
        x = HALF + a * k
    elif kind == "zero":
        x = a * k
    else:
        p, q, r = (draw(st.integers(-50, 50)), draw(st.integers(-5, 5)),
                   draw(st.integers(1, 9)))
        x = (SurdReal(p) + a * q) / r
    return step, x, draw(st.integers(0, 3000))


@settings(max_examples=200, deadline=None)
@given(orbits())
def test_sign_word_is_the_exact_scan(case):
    step, x, n = case
    w = sign_word(step, x, n)
    assert w.length == n
    assert np.array_equal(letters(w, n), _exact_signs(x, step, n))


@pytest.mark.parametrize("alpha", ["[0;(2)]", "[0;5,(6)]", "[0;3,(1,4)]"])
def test_sign_word_through_a_lattice_point_on_its_line(alpha):
    # the orbits of 1/2 - k*step and -k*step land exactly on 1/2 or 0 at
    # step k: a lattice point on the line, at each end of the path in turn
    a = parse_cf(alpha).value
    for step in (a, -a):
        for k in range(12):
            for x in (HALF - step * k, -step * k):
                for n in range(k, k + 9):
                    assert np.array_equal(letters(sign_word(step, x, n), n),
                                          _exact_signs(x, step, n)), (k, n)


FIELDS = ["[0;5,(6)]", "[0;7,(8)]", "[0;9,(18)]", "[0;13,(20,6)]", "[0;5,6,(8)]"]
# (p, q, r) for the start ((p + q*alpha)/r).frac(): dyadic rationals, and
# surds off the orbit of 0, whose backward half meets the tower's case
# boundaries, which Euclid's word never reads
dyadic = st.integers(0, 40).flatmap(
    lambda k: st.tuples(st.integers(0, 2 ** k - 1), st.just(0), st.just(2 ** k)))
surd = st.tuples(st.integers(-30, 30), st.integers(-30, 30).filter(bool),
                 st.integers(2, 40)).filter(lambda s: s[0] % s[2] or s[1] % s[2])


@settings(max_examples=40, deadline=None)
@given(alpha=st.sampled_from(FIELDS), seed=st.one_of(dyadic, surd),
       n=st.one_of(st.integers(0, 200), st.integers(2 * 10 ** 4, 10 ** 5)))
def test_sign_word_letters_are_the_exact_scan_signs(alpha, seed, n):
    a = parse_cf(alpha).value
    p, q, r = seed
    x = ((SurdReal(p) + a * q) / r).frac()
    assert np.array_equal(letters(sign_word(a, x, n), n), _exact_signs(x, a, n))


def test_sign_word_at_half_is_the_towers():
    for alpha in ("[0;5,(6)]", "[0;7,(8,10)]", "[0;21,(30,28,26)]", "[0;5,(1000)]"):
        cf = parse_cf(alpha)
        w = sign_word(cf.value, HALF, 2 ** 63 - 1)
        assert np.array_equal(letters(w, 10 ** 6), letters(half_word(cf, 10 ** 6), 10 ** 6))
        for n in (10 ** 6, 10 ** 12, 10 ** 18, 2 ** 63 - 1):
            assert prefix_sum_at(w, n) == fast_birkhoff(cf, n), (alpha, n)
        assert prefix_sum_at(sign_word(cf.value, HALF, 10 ** 300), 10 ** 300) \
            == fast_birkhoff(cf, 10 ** 300)


@pytest.mark.parametrize("alpha", ["[0;5,(6)]", "[0;7,(8)]", "[0;13,(20,6)]",
                                   "[0;5,(1000)]"])
def test_sign_word_far_out_from_the_descents_old_starts(alpha):
    # the starts (1+alpha)/2 and (1+alpha)/3: the first 10^5 letters are the
    # scan's, a long word's prefix is the short word, and at (1+alpha)/2,
    # whose reflection 1 - x is x - alpha, the backward signs 1..n are the
    # forward signs 0..n-1 negated, at any n
    a = parse_cf(alpha).value
    for x in ((ONE + a) / 2, ((ONE + a) / 3).frac()):
        far = sign_word(a, x, 10 ** 300)
        assert np.array_equal(letters(far, 10 ** 5), _exact_signs(x, a, 10 ** 5))
        for n in (10 ** 5, 10 ** 18):
            assert prefix_sum_at(far, n) == prefix_sum_at(sign_word(a, x, n), n)
    x, n = (ONE + a) / 2, 10 ** 300
    back = sign_word(-a, x, n + 1)
    assert prefix_sum_at(back, n + 1) - prefix_sum_at(back, 1) \
        == -prefix_sum_at(sign_word(a, x, n), n)


@pytest.mark.parametrize("alpha", ["[0;5,(6)]", "[0;7,10,(8,12)]", "[0;21,(30,28,26)]"])
@pytest.mark.parametrize("seed", ["1/2", "(1+2a)/7"])
@pytest.mark.parametrize("direction", [1, -1])
def test_sign_word_sums_are_the_exact_walks(alpha, seed, direction):
    # the exact walk, the ground truth, read off 64-bit keys, against a word
    # built by Euclid's algorithm, which reads no key: the histogram of
    # S_1..S_n and S_n at 10^6 steps on the three tower alphas of the
    # README, from 1/2 and from a start off the orbits of 1/2 and 0
    a = parse_cf(alpha).value
    x = HALF if seed == "1/2" else (1 + a * 2) / 7
    step, n = a * direction, 10**6
    w = sign_word(step, x, n)
    lo, counts, final, _ = exact_sums(x, step, n, 0)
    want_lo, want = prefix_histogram(w, n)
    assert (lo, final) == (want_lo, prefix_sum_at(w, n))
    assert np.array_equal(counts, want) and counts.sum() == n


def test_sign_word_of_the_example_family_stays_below_zero():
    # [0;2m+1,(2m+2)] from (1+alpha)/2: every forward sum is at most -1
    for m in (2, 3, 5):
        a = _cf([2 * m + 1], [2 * m + 2]).value
        lo, counts = prefix_histogram(sign_word(a, (ONE + a) / 2, 10 ** 18), 10 ** 18)
        assert lo + counts.size - 1 == -1


def test_sign_word_refuses_a_start_from_another_field():
    a = parse_cf("[0;5,(6)]").value
    with pytest.raises(ValueError, match="not in the field"):
        sign_word(a, SurdReal(0, 1, 2, 2), 10)  # sqrt(2)/2
    with pytest.raises(ValueError, match="n >= 0"):
        sign_word(a, HALF, -1)
    assert sign_word(a, SurdReal(1, 0, 3), 0) is EMPTY


def test_a_word_past_the_level_budget_is_refused(monkeypatch):
    a = parse_cf("[0;(2)]").value
    sign_word.cache_clear()
    monkeypatch.setattr(euclid, "_level_budget", lambda n: 1)
    assert sign_word(a, HALF, 1).length == 1  # one letter, L = 0, is one level
    with pytest.raises(ValueError, match="a word of 10 letters needs more than 1 levels"):
        sign_word(a, HALF, 10)
    monkeypatch.undo()
    assert sign_word(a, HALF, 10).length == 10


def test_words_are_cached_for_32_starts():
    a = parse_cf("[0;(1)]").value
    assert sign_word(a, HALF, 10 ** 6) is sign_word(a, HALF, 10 ** 6)
    assert sign_word.cache_info().maxsize == 32
