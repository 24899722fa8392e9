"""Exact quadratic arithmetic, continued fractions, certified floats."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotn.exactreal import (
    _GUARD,
    _ROOTS,
    _ROOTS_LIMIT,
    _TRIAL_LIMIT,
    CFNumber,
    SurdReal,
    _canonical_float,
    _squarefree_core,
    _surd_float,
    _surd_sign,
    _surd_signs,
    alpha_next,
    cf_value,
    expand_coefficients,
    gauss_step,
    parse_cf,
)

ALPHA = parse_cf("[0;5,(6)]")


# ---------------------------------------------------------------------------
# SurdReal canonical form and arithmetic


def test_canonicalization():
    assert SurdReal(2, 0, 4) == SurdReal(1, 0, 2)
    assert SurdReal.root(8) == SurdReal(0, 2, 1, 2)  # sqrt(8) = 2 sqrt(2)
    assert SurdReal(3, 0, -6) == SurdReal(-1, 0, 2)  # denominator made positive
    assert SurdReal(5, 0, 1, 7).d == 1  # q = 0 drops the radical
    assert SurdReal.root(9) == SurdReal(3)


def test_mixed_radicals_refused():
    with pytest.raises(ValueError, match="cannot mix"):
        SurdReal.root(2) + SurdReal.root(3)


def test_zero_denominator_refused():
    with pytest.raises(ZeroDivisionError):
        SurdReal(1, 0, 0)


def _core_matches_sympy(n):
    from sympy.ntheory.factor_ import core

    s, d = _squarefree_core(n)
    assert d == core(n, 2) and s * s * d == n


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**40), st.integers(1, 2**12))
def test_squarefree_core_matches_sympy(n, k):
    _core_matches_sympy(n)
    _core_matches_sympy(n * k * k)


def _squarefree_core_cases():
    from sympy import nextprime, prevprime

    past, below = nextprime(_TRIAL_LIMIT), prevprime(_TRIAL_LIMIT)
    cases = [1, 2, 4, 8, 12]
    # prime squares and p^2 * q with p on either side of the trial cap;
    # past**2 * nextprime(past) is left to the fallback
    cases += [past**2, below**2, 3 * past**2, below**2 * past, past**2 * nextprime(past)]
    # perfect cubes, again on either side of the cap
    cases += [27, 30**3, below**3, past**3]
    # two primes either side of the cube-root stop: q * Q with Q ~ q^2,
    # so the loop finds q below n^(1/3) and stops short of it above
    for base in (100, 1000, 10**5):
        Q = nextprime(base * base)
        for q in (prevprime(base), nextprime(base)):
            cases += [q * Q, q * q * Q, q * Q * Q, q * q]
    return cases


@pytest.mark.parametrize("n", _squarefree_core_cases())
def test_squarefree_core_built_cases(n):
    _core_matches_sympy(n)


def test_squarefree_core_refuses_a_large_cofactor():
    # two Mersenne primes: no factor below the trial cap, 196 bits left
    with pytest.raises(ValueError, match="196-bit cofactor, above the limit of 2\\^128"):
        _squarefree_core((2**89 - 1) * (2**107 - 1))


def test_arithmetic_identities():
    a = ALPHA.value  # (sqrt(10) - 2)/6
    assert a == (SurdReal.root(10) - 2) / 6
    assert a.exact_str() == "(-2+1*sqrt(10))/6"
    assert (a * a.reciprocal()) == 1
    assert a + (-a) == 0
    assert (1 - a) + a == 1
    assert a ** 2 == a * a
    assert a ** 0 == SurdReal(1)
    # the defining quadratic of the field member: 6a^2 + 4a - 1 = 0
    assert 6 * a * a + 4 * a - 1 == 0
    assert 3 / a == a.reciprocal() * 3


def test_floats_and_floor():
    a = ALPHA.value
    assert abs(float(a) - 0.19371294336139655) < 1e-15
    assert math.floor(SurdReal.root(10)) == 3
    assert math.floor(-SurdReal.root(10)) == -4
    assert math.floor(SurdReal(7, 0, 2)) == 3
    assert math.floor(SurdReal(-7, 0, 2)) == -4
    assert (SurdReal.root(10) / 2).frac() == SurdReal(-2, 1, 2, 10)


def test_rational_interop():
    x = SurdReal.from_fraction(Fraction(3, 7))
    assert x.is_rational and x.as_fraction() == Fraction(3, 7)
    assert x == Fraction(3, 7)
    assert hash(x) == hash(Fraction(3, 7))
    assert SurdReal(1, 0, 2) + Fraction(1, 2) == 1
    y = SurdReal.root(10)
    assert not y.is_rational
    with pytest.raises(ValueError):
        y.as_fraction()


@given(st.fractions(max_denominator=10**6))
def test_fraction_round_trip(q):
    assert SurdReal.from_fraction(q).as_fraction() == q


@given(
    st.integers(-50, 50),
    st.integers(-20, 20),
    st.integers(1, 30),
    st.sampled_from([2, 3, 5, 10]),
)
def test_floor_and_frac_properties(p, q, r, d):
    x = SurdReal(p, q, r, d)
    f = math.floor(x)
    assert SurdReal(f) <= x < SurdReal(f + 1)
    assert x.frac() == x - f
    assert SurdReal(0) <= x.frac() < SurdReal(1)


@given(
    st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 9),
    st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 9),
)
def test_field_ops_match_mpmath(p1, q1, r1, p2, q2, r2):
    x = SurdReal(p1, q1, r1, 10)
    y = SurdReal(p2, q2, r2, 10)
    with mpmath.workdps(60):
        fx = (p1 + q1 * mpmath.sqrt(10)) / r1
        fy = (p2 + q2 * mpmath.sqrt(10)) / r2
        for got, want in [(x + y, fx + fy), (x - y, fx - fy), (x * y, fx * fy)]:
            assert abs(float(got) - float(want)) < 1e-12


_SQUAREFREE = st.integers(2, 10**6).filter(lambda d: _squarefree_core(d)[0] == 1)


def _surds(d):
    big, den = st.integers(-(2**80), 2**80), st.integers(1, 2**40)
    return st.builds(lambda p, q, r: SurdReal(p, q, r, d), big, big, den)


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 10, 9999991]), other_d=st.sampled_from([6, 7, 11]),
       data=st.data())
def test_comparisons_are_the_sign_of_the_difference(d, other_d, data):
    # _cmp takes the sign without building self - other; it must agree
    # with the subtraction form against every operand a comparison takes
    rationals = st.builds(SurdReal.from_fraction, st.fractions())
    x = data.draw(_surds(d) | rationals, label="x")
    y = data.draw(st.one_of(_surds(d), rationals, st.just(x), st.integers(-10, 10),
                            st.fractions(max_denominator=10**6)), label="y")
    want = (x - y).sign()
    assert x._cmp(y) == want
    assert (x < y, x <= y, x > y, x >= y) == (want < 0, want <= 0, want > 0, want >= 0)
    assert (y < x, y > x) == (want > 0, want < 0)  # reflected, for int and Fraction
    # a point of another field: the same refusal as the subtraction's
    z = data.draw(_surds(other_d).filter(lambda z: z.q != 0), label="z")
    if x.q:
        with pytest.raises(ValueError, match="cannot mix") as sub:
            x - z
        with pytest.raises(ValueError) as cmp:
            x < z
        assert str(cmp.value) == str(sub.value)
    else:
        assert x._cmp(z) == (x - z).sign()


@settings(max_examples=100, deadline=None)
@given(d=_SQUAREFREE, data=st.data())
def test_array_sign_is_the_scalar_sign(d, data):
    # int64 arrays take p*p and q*q*d up to 2^62; object arrays any size
    qmax = math.isqrt(2**62 // d)
    small = st.tuples(st.integers(-(2**31), 2**31), st.integers(-qmax, qmax))
    big = st.tuples(st.integers(-(2**200), 2**200), st.integers(-(2**200), 2**200))
    for dtype, pairs in ((np.int64, small), (object, big)):
        ps, qs = zip(*data.draw(st.lists(pairs, min_size=1, max_size=20)))
        q = np.array(qs, dtype=dtype)
        got = _surd_signs(np.array(ps, dtype=dtype), np.sign(q), q * q * d)
        assert got.tolist() == [_surd_sign(p, q, d) for p, q in zip(ps, qs)]


@settings(max_examples=300, deadline=None)
@given(d=_SQUAREFREE, p=st.integers(-(2**100), 2**100), q=st.integers(-(2**100), 2**100),
       r=st.integers(1, 2**100), k=st.integers(1, 2**40))
def test_float_of_a_surd_is_the_float_of_any_representation(d, p, q, r, k):
    # SurdReal.__float__ skips the gcd of an already canonical surd; the
    # reducing entry point must land on the same float from a scaled copy
    s = SurdReal(p, q, r, d)
    assert float(s).hex() == _surd_float(s.p * k, s.q * k, s.r * k, s.d).hex()


def _isqrt_float(p: int, q: int, r: int, d: int) -> float:
    """The float formula as it was before its per-field root, kept verbatim:
    the reference the root's shortcut must match bit for bit."""
    if q == 0:
        return p / r
    s = math.isqrt(q * q * d << (2 * 72))
    if q < 0:
        s = -s
    return ((p << 72) + s) / (r << 72)


@settings(max_examples=500, deadline=None)
@given(d=_SQUAREFREE, p=st.integers(-(2**100), 2**100),
       q=st.integers(1, 2**(_GUARD + 8)), negative=st.booleans(), r=st.integers(1, 2**100))
def test_float_formula_is_the_isqrt_formula(d, p, q, negative, r):
    q = -q if negative else q
    assert _canonical_float(p, q, r, d).hex() == _isqrt_float(p, q, r, d).hex()


def _band_q(d: int) -> tuple:
    """(S, q, m): the field's root S = 2^v * odd, and q < m = 2^(G-v) with
    q*S = -2^v mod 2^G."""
    S = math.isqrt(d << 2 * (72 + _GUARD))
    v = (S & -S).bit_length() - 1
    m = 1 << (_GUARD - v)
    return S, -pow(S >> v, -1, m) % m, m


@pytest.mark.parametrize("d", [2, 3, 5, 10, 120121, 9999991])
def test_float_formula_in_the_guard_band(d):
    # the low G bits of q*S lie within q of 2^G: the shortcut cannot tell
    # the floor there, and isqrt decides
    S, q, _ = _band_q(d)
    assert q < 1 << _GUARD and ((q * S) & ((1 << _GUARD) - 1)) + q > 1 << _GUARD
    for qq in (q, -q, q + (1 << _GUARD), 1, -1, 3):
        for p, r in ((0, 1), (1, 2), (-(2**90) - 1, 2**70 + 3)):
            assert _canonical_float(p, qq, r, d).hex() == _isqrt_float(p, qq, r, d).hex()


# (d, c, p): q = c * _band_q(d)'s q mod m is in the guard band, where
# (q*S) >> G is one below the floor, and q*sqrt(d) is within 2^-19 of the
# integer -p, so the miss shows in the float of p + q*sqrt(d); found by a
# search over c
_SHORTCUT_MISSES = [
    (2, 61017, -9297710131878631071),
    (3, 60377, -31892748305342263248),
    (5, 512345, -38620787996304600201),
    (10, 82098, -10465879600596050381),
]


@pytest.mark.parametrize("d, c, p", _SHORTCUT_MISSES)
def test_float_formula_where_the_shortcut_misses(d, c, p):
    S, q, m = _band_q(d)
    q = c * q % m
    shortcut = ((p << 72) + ((q * S) >> _GUARD)) / (1 << 72)
    assert shortcut != _isqrt_float(p, q, 1, d)
    for pp, qq in ((p, q), (-p, -q)):
        assert _canonical_float(pp, qq, 1, d).hex() == _isqrt_float(pp, qq, 1, d).hex()


def test_float_formulas_root_cache_stays_bounded():
    fields = [d for d in range(2, 10 * _ROOTS_LIMIT) if _squarefree_core(d)[0] == 1]
    assert len(fields) > 2 * _ROOTS_LIMIT
    for d in fields:
        assert _canonical_float(1, 3, 7, d).hex() == _isqrt_float(1, 3, 7, d).hex()
        assert len(_ROOTS) <= _ROOTS_LIMIT
    # the newest fields are kept, each with its own root
    assert _ROOTS == {d: math.isqrt(d << 2 * (72 + _GUARD)) for d in fields[-_ROOTS_LIMIT:]}


@pytest.mark.parametrize("d, named", [
    (2, [(1, 1), (3, 2), (7, 5), (17, 12)]),
    (7, [(8, 3), (127, 48)]),
    (13, [(18, 5)]),
])
def test_array_sign_on_pell_near_ties(d, named):
    # powers of p1 + q1*sqrt(d) give p*p - d*q*q = +-1: their squares
    # nearly tie, and the larger decides the sign of p - q*sqrt(d)
    (p1, q1), (p, q) = named[0], named[0]
    pell = []
    while p < 2**120:
        assert abs(p * p - d * q * q) == 1
        pell.append((p, q))
        p, q = p * p1 + d * q * q1, p * q1 + q * p1
    assert pell[:len(named)] == named
    for dtype, limit in ((np.int64, 2**31), (object, 2**120)):
        pairs = [(sp * p, sq * q) for p, q in pell if p < limit
                 for sp in (1, -1) for sq in (1, -1)]
        ps, qs = zip(*pairs)
        q = np.array(qs, dtype=dtype)
        got = _surd_signs(np.array(ps, dtype=dtype), np.sign(q), q * q * d)
        assert got.tolist() == [_surd_sign(p, q, d) for p, q in pairs]
        larger = [p if p * p > d * q * q else q for p, q in pairs]
        assert got.tolist() == [1 if x > 0 else -1 for x in larger]
    assert max(p for p, _ in pell if p < 2**31) > 2**28  # near the int64 limit


# ---------------------------------------------------------------------------
# certified floats


def test_certified_shadow_is_tight():
    a = ALPHA.value
    c = a.certified()
    assert c.radius < 1e-15
    with mpmath.workdps(60):
        true = (mpmath.sqrt(10) - 2) / 6
        assert abs(c.value - float(true)) <= c.radius


@pytest.mark.parametrize("r", [2**1000 + 1, 2**2000 + 1], ids=["2^1000", "2^2000"])
def test_certified_radius_holds_for_huge_denominators(r):
    # den = r << 72 is past the float range; at r = 2^2000 + 1 the
    # second value underflows to 0.0
    for x in (SurdReal(r // 3, r // 7, r, 10), SurdReal(1, 1, r, 10)):
        c = x.certified()
        assert x >= Fraction(c.value) - Fraction(c.radius)
        assert x <= Fraction(c.value) + Fraction(c.radius)


# ---------------------------------------------------------------------------
# continued fractions


def test_parse_and_str_round_trip():
    assert str(parse_cf("[0;5,(6)]")) == "[0;5,(6)]"
    assert str(parse_cf("[0;5,8,(6)]")) == "[0;5,8,(6)]"
    assert parse_cf("[0; 5, (6, 6)]") == parse_cf("[0;5,(6)]")  # primitive period
    assert parse_cf("[0;5,6,(6)]") == parse_cf("[0;5,(6)]")  # tail folds in
    assert parse_cf("[0;(2)]").value == SurdReal(-1, 1, 1, 2)  # sqrt(2) - 1


@pytest.mark.parametrize("bad", ["", "[1;(2)]", "[0;]", "[0;5]", "[0;(0)]", "[0;5,()]"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_cf(bad)


def test_cf_values_frozen():
    assert cf_value(parse_cf("[0;(6)]")) == SurdReal(-3, 1, 1, 10)
    assert cf_value(ALPHA) == SurdReal(-2, 1, 6, 10)
    assert cf_value(parse_cf("[0;5,8,(6)]")) == (80 + SurdReal.root(10)) / 426


def test_coefficient_indexing():
    cf = parse_cf("[0;5,8,(6)]")
    assert [cf.coefficient(i) for i in (1, 2, 3, 4)] == [5, 8, 6, 6]
    assert cf.shift() == parse_cf("[0;8,(6)]")


def test_gauss_step_and_alpha_next():
    g = gauss_step(ALPHA.value)
    assert g == cf_value(parse_cf("[0;(6)]"))
    nxt = alpha_next(ALPHA)
    assert nxt == ALPHA  # the self-similar point of the family
    assert nxt.value == g / (1 - g)
    assert alpha_next(parse_cf("[0;5,8,(6)]")) == parse_cf("[0;7,(6)]")
    # a purely periodic fraction shifts by rotating its period
    periodic = parse_cf("[0;(3,4)]")
    g = gauss_step(periodic.value)
    assert alpha_next(periodic) == parse_cf("[0;3,(3,4)]")
    assert alpha_next(periodic).value == g / (1 - g)


def test_alpha_next_needs_room():
    with pytest.raises(ValueError):
        alpha_next(parse_cf("[0;5,(1)]"))


def test_expand_coefficients_recovers_cf():
    assert expand_coefficients(ALPHA.value, 6) == [5, 6, 6, 6, 6, 6]
    assert expand_coefficients(cf_value(parse_cf("[0;5,8,(6)]")), 5) == [5, 8, 6, 6, 6]


@settings(max_examples=40)
@given(
    st.lists(st.integers(1, 9), min_size=0, max_size=3),
    st.lists(st.integers(1, 9), min_size=1, max_size=3),
)
def test_cf_value_round_trip(pre, per):
    cf = CFNumber(tuple(pre), tuple(per))
    v = cf.value
    assert SurdReal(0) < v < SurdReal(1)
    n = len(pre) + 2 * len(per) + 3
    assert expand_coefficients(v, n) == [cf.coefficient(i) for i in range(1, n + 1)]


@settings(max_examples=30)
@given(
    st.lists(st.integers(1, 9), min_size=0, max_size=3),
    st.lists(st.integers(1, 9), min_size=1, max_size=3),
)
def test_cf_value_matches_mpmath(pre, per):
    cf = CFNumber(tuple(pre), tuple(per))
    coeffs = [cf.coefficient(i) for i in range(1, 60)]
    with mpmath.workdps(80):
        acc = mpmath.mpf(0)
        for a in reversed(coeffs):
            acc = 1 / (a + acc)
        assert abs(float(cf.value) - float(acc)) < 1e-13
