"""Exact arithmetic in a real quadratic field, plus certified floats.

Quadratic irrationals are the only numbers this package ever needs
exactly: rotation numbers with eventually periodic continued fractions,
and everything derived from them by field operations and floor/frac.
``SurdReal`` represents (p + q*sqrt(d))/r with integer p, q, r and
square-free d, canonically reduced, with exact comparisons and an exact
floor built on integer square roots.  No rounding happens anywhere in
this module unless explicitly asked for via ``certified``.

``CertifiedFloat`` is a float with a rigorous error radius.  The policy
throughout the package is: decide predicates (is x < 1/2, did the orbit
wrap) on certified floats when the interval is clear of the threshold,
and escalate to exact ``SurdReal`` arithmetic when it is not.  The
orbit scan adds each escalation to the module-level ``escalations``
counter.

``Frame`` is the lattice the exact orbit walkers run on.  It fixes one
common denominator R and one field Q(sqrt(d)) for every value a walk
touches, and holds each point as an integer pair (P, Q) standing for
(P + Q*sqrt(d))/R.  A rotation step is then two integer adds.  The
walkers read ``R`` and ``d`` off the frame and call the module's one
sign test, ``_surd_sign(P, Q, d)``, against thresholds embedded once,
and its one float formula, ``_surd_float(P, Q, R, d)`` (or its proven
batch form ``_surd_floats`` on sequences of lattice points).  The
per-step walkers also keep each point's fixed-point key
``Frame.key(P, Q)``, which moves by the same integer steps; a comparison
whose two keys lie further apart than the walk's bound on |Q| is decided
by the keys alone, and only one inside that band calls ``_surd_sign``.

The batch float (``_surd_floats``).  ``_canonical_float`` rounds, for a
canonical triple (p, q, r) with q != 0, the rational
V = ((p << 72) + s)/(r << 72), s = +-floor(|q|*sqrt(d)*2^72) with the
sign of q, to the nearest double; with v = (p + q*sqrt(d))/r,
|V - v| < 2^-72/r.  For q = 0 it returns p/r, the double nearest
V = v.  Take |p|, |q|, r < 2^53, so that each is an exact double, write
u = 2^-53, s = sqrt(d) and A = |p| + |q|*s, and evaluate v in
double-double arithmetic (Dekker, 1971), with no FMA:

- sqrt(d) ~ sh + sl, sh = fl(S*2^-136) and sl = fl(S*2^-136 - sh), from
  the field's root S = floor(sqrt(d)*2^136): |sl| <= u*sh, and
  |sh + sl - s| < 2^-136 + u^2*sh <= 1.01*u^2*s.
- q*sh = m1 + m2 exactly, by Dekker's two-product on Veltkamp's halves;
  p + m1 = s1 + s2 exactly, by a two-sum; e = fl(fl(s2 + m2) + fl(q*sl)).
  |s2|, |m2| and |q*sl| are each at most 1.01u*A, so the three
  roundings cost at most 6.1u^2*A, and n1 + n2 = s1 + e (a two-sum) lies
  within 7.1u^2*A of p + q*s, the root's error included.
- q1 = fl(n1/r).  Its remainder n1 - q1*r is a double, |n1 - q1*r| <=
  u*|q1|*r, and with q1*r = pi1 + pi2 by two-product, n1 - pi1 is exact
  (Sterbenz) and so is (n1 - pi1) - pi2.  c = fl(that + n2) and
  q2 = fl(c/r) err by at most 2.01u^2*|n1| and 2.02u^2*|n1|/r, and
  |n1| <= 1.01*A, so w = q1 + q2 lies within 4.1u^2*A/r of n/r.
- So |w - v| <= 11.2u^2*A/r < 2^-102*A/r, and |w - V| < B =
  (2^-102*A + 2^-72)/r.  h + low = w by a two-sum, h = fl(w).

Lemma: if h is normal, not a power of two, and |low| + B < half, where
|h| is in [2^t, 2^(t+1)) and half = 2^(t-53), then the double nearest V
is h.  Its neighbours are h -+ 2*half, so V, within |low| + B < half of
h, lies strictly inside h's rounding interval: no tie, and no other
double is as near.  The kernel tests fl(|low| + B') < half with
B' = fl(fl(fl((|p| + fl(|q|*sh))*2^-101) + 2^-71)/r), which is 2B to
within 6u, so B' >= B; rounding is monotone and half is a double, so
the computed test implies the exact one.  Every other point, a tie, a
value beside a power of two, or one the bound does not decide, takes
``_surd_float``, as does a point whose reduced |p|, |q| or r reaches
2^53.

``CFNumber`` is an eventually periodic continued fraction
[0; c1, c2, ...] normalized to a primitive period and minimal
preperiod, with an exact ``SurdReal`` value.

``Record`` and ``FrozenRecord`` are the slotted bases of the package's
result records (``CertifiedFloat`` here): field-wise equality and a
``Name(field=value, ...)`` repr, and for a frozen record immutability
and a hash, with no ``dataclasses`` import at start-up.  Each record's
``__init__`` keeps its explicit signature and checks, then stores all
its fields in one call, ``Record._store``, through each field's slot
setter, which every record class collects once, when it is defined.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

__all__ = [
    "SurdReal",
    "Frame",
    "CertifiedFloat",
    "CFNumber",
    "parse_cf",
    "cf_value",
    "gauss_step",
    "alpha_next",
    "expand_coefficients",
    "escalations",
]

Rationalish = Union[int, Fraction]


# trial division stops at _TRIAL_LIMIT, about 0.1 s of divisions; sympy
# gets what is left up to _FACTOR_LIMIT, since its core() took ~1 s on a
# 120-bit cofactor and ~13 s on a 140-bit one
_TRIAL_LIMIT = 1 << 20
_FACTOR_LIMIT = 1 << 128


def _squarefree_core(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s*s*d and d square-free, for n >= 1.

    Trial division takes out 2, then odd p, while p**3 <= m, the cofactor
    still unfactored.  Once p**3 > m every prime factor of m is at least
    p, so m has at most two of them: it is square-free unless it is a
    perfect square, and one isqrt settles that.  Only a cofactor that
    outlasts p = _TRIAL_LIMIT goes to sympy, and only up to _FACTOR_LIMIT.
    """
    if n < 1:
        raise ValueError("need a positive integer, got %r" % (n,))
    s, d, m = 1, 1, n
    p = 2
    while p * p * p <= m and p <= _TRIAL_LIMIT:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(m)
    if r * r == m:
        return s * r, d
    if p * p * p > m:
        return s, d * m
    if m > _FACTOR_LIMIT:
        raise ValueError(
            "cannot take the square-free core of a %d-bit integer: trial division "
            "leaves a %d-bit cofactor, above the limit of 2^%d"
            % (n.bit_length(), m.bit_length(), _FACTOR_LIMIT.bit_length() - 1)
        )
    from sympy.ntheory.factor_ import core

    dm = int(core(m, 2))
    return s * math.isqrt(m // dm), d * dm


class SurdReal:
    """(p + q*sqrt(d))/r, exact.

    Canonical form: r > 0, gcd(p, q, r) = 1, and d square-free with
    d = 1 exactly when q = 0 (the rational case).  Two SurdReals are
    equal iff their canonical tuples are equal; within one field that
    coincides with numeric equality.

    Arithmetic stays inside one field: mixing two irrational operands
    with different d raises.  Construct roots with ``SurdReal.root``,
    which extracts the square part of d.

    A SurdReal is immutable: ``__setattr__`` raises.  ``__init__``
    stores the four canonical fields through the slots' own setters
    (``SurdReal.p.__set__`` and so on, taken once below the class), as
    ``Record._store`` does, which go past that guard without the
    lookup an ``object.__setattr__`` call makes by name.  A sum, a
    difference and a product each build one SurdReal: a difference
    is not a sum with the negated right side.
    """

    __slots__ = ("p", "q", "r", "d")

    def __init__(self, p: int, q: int = 0, r: int = 1, d: int = 1):
        if r == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 1:
            raise ValueError("d must be >= 1, got %r" % (d,))
        if d == 1:
            p, q = p + q, 0
        if q == 0:
            d = 1
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(p, q, r)
        if g > 1:
            p //= g
            q //= g
            r //= g
        _set_p(self, p)
        _set_q(self, q)
        _set_r(self, r)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("SurdReal is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def root(d: int) -> "SurdReal":
        """sqrt(d) for integer d >= 1, reducing d to its square-free core."""
        s, d0 = _squarefree_core(d)
        return SurdReal(0, s, 1, d0) if d0 > 1 else SurdReal(s)

    @staticmethod
    def from_fraction(x: Rationalish) -> "SurdReal":
        f = Fraction(x)
        return SurdReal(f.numerator, 0, f.denominator, 1)

    # -- predicates ----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if self.q != 0:
            raise ValueError("%s is irrational" % (self,))
        return Fraction(self.p, self.r)

    def sign(self) -> int:
        """Sign of the value as -1, 0 or +1, exactly.  r > 0, so only
        p + q*sqrt(d) matters."""
        return _surd_sign(self.p, self.q, self.d)

    # -- field operations ----------------------------------------------

    def _join(self, other: "SurdReal") -> int:
        if self.q == 0:
            return other.d
        if other.q == 0 or other.d == self.d:
            return self.d
        raise ValueError(
            "cannot mix sqrt(%d) with sqrt(%d)" % (self.d, other.d)
        )

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join(other)
        return SurdReal(
            self.p * other.r + other.p * self.r,
            self.q * other.r + other.q * self.r,
            self.r * other.r,
            d,
        )

    __radd__ = __add__

    def __neg__(self):
        return SurdReal(-self.p, -self.q, self.r, self.d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join(other)
        return SurdReal(
            self.p * other.r - other.p * self.r,
            self.q * other.r - other.q * self.r,
            self.r * other.r,
            d,
        )

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join(other)
        return SurdReal(
            self.p * other.p + self.q * other.q * d,
            self.p * other.q + self.q * other.p,
            self.r * other.r,
            d,
        )

    __rmul__ = __mul__

    def reciprocal(self) -> "SurdReal":
        n = self.p * self.p - self.q * self.q * self.d
        if n == 0:
            raise ZeroDivisionError("reciprocal of zero")
        return SurdReal(self.r * self.p, -self.r * self.q, n, self.d)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.reciprocal()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = SurdReal(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- floor and fractional part --------------------------------------

    def __floor__(self) -> int:
        # floor((p + q*sqrt(d))/r) = (p + floor(q*sqrt(d))) // r for r > 0.
        # q != 0 makes q*sqrt(d) irrational, so isqrt never sits on a tie.
        if self.q == 0:
            return self.p // self.r
        s = math.isqrt(self.q * self.q * self.d)
        fs = s if self.q > 0 else -s - 1
        return (self.p + fs) // self.r

    def frac(self) -> "SurdReal":
        """Fractional part, in [0, 1)."""
        n = self.__floor__()
        return SurdReal(self.p - n * self.r, self.q, self.r, self.d)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self.p == other.p
            and self.q == other.q
            and self.r == other.r
            and self.d == other.d
        )

    def __hash__(self):
        if self.q == 0:
            return hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.r, self.d))

    def _cmp(self, other) -> int:
        """Sign of self - other, without building it: r1*r2 > 0, so the
        sign of (p1*r2 - p2*r1) + (q1*r2 - q2*r1)*sqrt(d) on the joined field."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join(other)
        return _surd_sign(self.p * other.r - other.p * self.r,
                          self.q * other.r - other.q * self.r, d)

    def __lt__(self, other):
        c = self._cmp(other)
        return c < 0 if c is not NotImplemented else NotImplemented

    def __le__(self, other):
        c = self._cmp(other)
        return c <= 0 if c is not NotImplemented else NotImplemented

    def __gt__(self, other):
        c = self._cmp(other)
        return c > 0 if c is not NotImplemented else NotImplemented

    def __ge__(self, other):
        c = self._cmp(other)
        return c >= 0 if c is not NotImplemented else NotImplemented

    # -- float shadow -----------------------------------------------------

    def certified(self) -> "CertifiedFloat":
        """Float approximation with a rigorous error radius."""
        v = float(self)
        if self.q == 0:  # p / r is correctly rounded
            return CertifiedFloat(v, math.ulp(abs(v)) if v else 5e-324)
        # isqrt error <= 1 gives 1/den; float rounding gives ulp/2; pad
        # both.  2 / den divides ints, correctly rounded: den as a float
        # would overflow once it passes 2^1024
        return CertifiedFloat(v, 2 / (self.r << _SHIFT) + math.ulp(abs(v)))

    def __float__(self) -> float:
        """The value of ``certified()``, without building its radius."""
        return _canonical_float(self.p, self.q, self.r, self.d)

    # -- formatting --------------------------------------------------------

    def exact_str(self) -> str:
        if self.q == 0:
            return "%d/%d" % (self.p, self.r)
        sign = "+" if self.q > 0 else "-"
        return "(%d%s%d*sqrt(%d))/%d" % (self.p, sign, abs(self.q), self.d, self.r)

    def __repr__(self):
        return "SurdReal[%s ~ %.12g]" % (self.exact_str(), float(self))


# the slots' own setters store past the __setattr__ guard, as Record._store's do
_set_p, _set_q, _set_r, _set_d = (SurdReal.p.__set__, SurdReal.q.__set__,
                                  SurdReal.r.__set__, SurdReal.d.__set__)


def _surd_sign(p: int, q: int, d: int) -> int:
    """Sign of p + q*sqrt(d) as -1, 0 or +1, exactly.

    d must be square-free, and d > 1 whenever q != 0: then q*sqrt(d) is
    irrational, so when p and q*sqrt(d) have opposite signs their
    squares never tie.  This is the package's one exact sign test.
    """
    if q == 0:
        return (p > 0) - (p < 0)
    if (p > 0) == (q > 0):  # same sign, or p == 0 < -q
        return 1 if p > 0 else -1
    if p * p > q * q * d:
        return 1 if p > 0 else -1
    return 1 if q > 0 else -1


_SHIFT = 72


def _surd_float(p: int, q: int, r: int, d: int) -> float:
    """(p + q*sqrt(d))/r as a float, for r > 0, from any representation.

    Divides p, q and r by gcd(p, q, r) and hands the canonical triple to
    ``_canonical_float``, so every representation of one number gives
    the float of its canonical form.  The exact orbit scan and the exact
    leaf trace call it on lattice points, so a walker's float shadow
    equals float() of its surd.
    """
    g = math.gcd(p, q, r)
    if g > 1:
        p //= g
        q //= g
        r //= g
    return _canonical_float(p, q, r, d)


# _canonical_float's root of each field: floor(sqrt(d) * 2^(_SHIFT + _GUARD))
# by d, for at most _ROOTS_LIMIT fields, the oldest dropped first
_GUARD = 64
_BAND = 1 << _GUARD
_LOW = _BAND - 1
_ROOTS: dict = {}
_ROOTS_LIMIT = 64
# Frame.key's fractional bits, taken from the top of the field root
_KEY = 64


def _field_root(d: int) -> int:
    """floor(sqrt(d) * 2^(_SHIFT + _GUARD)), kept in ``_ROOTS``."""
    if len(_ROOTS) >= _ROOTS_LIMIT:
        del _ROOTS[next(iter(_ROOTS))]
    S = _ROOTS[d] = math.isqrt(d << 2 * (_SHIFT + _GUARD))
    return S


def _canonical_float(p: int, q: int, r: int, d: int) -> float:
    """(p + q*sqrt(d))/r as a float, for a canonical triple: the package's one float formula.

    A rational value is p / r, correctly rounded for any int sizes.
    Otherwise the value is num/den rounded once, with
    num = (p << 72) + isqrt(q*q*d << 144) (negated with q) and
    den = r << 72.  That isqrt comes from the field's root
    S = floor(sqrt(d)*2^(72+G)), G = 64, kept in ``_ROOTS``, as (|q|*S) >> G:
    |q|*S <= |q|*sqrt(d)*2^(72+G) < |q|*S + |q|, so the shift is the floor
    unless the low G bits of |q|*S plus |q| pass 2^G, and only then is
    isqrt called.  ``SurdReal.__float__`` calls it directly, since a
    SurdReal is canonical already; ``_surd_float`` reduces first.
    """
    if q == 0:
        return p / r
    a = q if q > 0 else -q
    t = a * (_ROOTS.get(d) or _field_root(d))
    if (t & _LOW) + a > _BAND:
        s = math.isqrt(q * q * d << (2 * _SHIFT))
    else:
        s = t >> _GUARD
    if q < 0:
        s = -s
    return ((p << _SHIFT) + s) / (r << _SHIFT)


# _surd_floats: p, q and r below _EXACT are exact doubles; _SPLIT is
# Veltkamp's constant, which splits a double into two halves of 26 bits;
# the lemma's bound B, doubled, is (|p| + |q|*sh)*_ERR_REL/r + _ERR_ABS/r
_EXACT = 1 << 53
_SPLIT = 2.0 ** 27 + 1
_ERR_REL, _ERR_ABS = 2.0 ** -101, 2.0 ** -71
_EXPONENT, _MANTISSA = 0x7FF << 52, (1 << 52) - 1


def _split(a):
    """Veltkamp's split: (hi, lo) with hi + lo = a, each of 26 bits."""
    hi = a * _SPLIT
    hi -= hi - a
    return hi, a - hi


def _two_prod(a, b):
    """Dekker's two-product, with no FMA: (x, y) with x = fl(a*b) and
    x + y = a*b exactly, for an array a.  Each partial product is written
    into a half that it reads last, so a call holds six arrays at most."""
    x = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    y = ah * bh
    y -= x
    ah *= bl
    y += ah
    bh *= al  # in place unless b, and so bh, is a float
    y += bh
    al *= bl
    y += al
    return x, y


def _two_sum(a, b):
    """Knuth's two-sum: (s, e) with s = fl(a + b) and s + e = a + b
    exactly, for arrays a and b, through three arrays."""
    import numpy as np

    s = a + b
    c = s - a
    e = s - c
    np.subtract(a, e, out=e)
    np.subtract(b, c, out=c)
    e += c
    return s, e


def _surd_floats(P, Q, R: int, d: int):
    """``_surd_float(p, q, R, d)`` for each pair (p, q) of the sequences P
    and Q, as a float64 array, bit for bit: its proven batch form.

    ``_proven_floats`` writes each point's float in int64 and double-double
    arithmetic, and each point it does not prove takes ``_surd_float``,
    as does every point of a call whose R or d reach 2^63 or whose P or
    Q do not fit in int64.
    """
    import numpy as np  # here, so that importing this module needs no numpy

    n = len(P)
    out = None
    if n and R < 1 << 63 and d < 1 << 63:
        try:
            out, proven = _proven_floats(P, Q, R, d)
        except OverflowError:  # a point past int64
            pass
    if out is None:
        out, proven = np.empty(n, dtype=np.float64), np.zeros(n, dtype=bool)
    if not proven.all():
        for i in np.flatnonzero(~proven).tolist():
            out[i] = _surd_float(int(P[i]), int(Q[i]), R, d)
    return out


def _proven_floats(P, Q, R: int, d: int):
    """(h, proven): for each point (P, Q) over R, the float h the lemma
    gives it, and whether the lemma proves h is ``_surd_float``'s.
    Raises OverflowError if P or Q do not fit in int64.

    A point is reduced by gcd(p, q, R) first, in int64; one whose
    reduced |p|, |q| or r reaches 2^53 is not proven.
    """
    import numpy as np

    p, q = np.array(P, dtype=np.int64), np.array(Q, dtype=np.int64)
    # |p|, |q| < 2^53 exactly when p + 2^53 and q + 2^53, wrapped to
    # uint64, are below 2^54; a point outside becomes 0, and stays unproven
    proven = ((p + _EXACT).view(np.uint64) | (q + _EXACT).view(np.uint64)) < 2 * _EXACT
    if not proven.all():
        p *= proven
        q *= proven
    r = np.gcd(np.gcd(q, R), p)
    p //= r
    q //= r
    np.floor_divide(R, r, out=r)
    if R >= _EXACT:
        proven &= r < _EXACT
    pf, qf, rf = p.astype(np.float64), q.astype(np.float64), r.astype(np.float64)
    del p, q, r
    S = _ROOTS.get(d) or _field_root(d)
    scale = 2.0 ** -(_SHIFT + _GUARD)
    sh = float(S) * scale  # sqrt(d) as sh + sl
    sl = float(S - int(sh / scale)) * scale
    h, low = _dd_quotient(pf, qf, rf, sh, sl)
    err = np.abs(qf)
    err *= sh
    err += np.abs(pf)
    err *= _ERR_REL
    err += _ERR_ABS
    err /= rf
    err += np.abs(low)
    bits = h.view(np.uint64)
    half = (bits & _EXPONENT).view(np.float64)
    half *= 2.0 ** -53
    proven &= bits & _MANTISSA != 0
    proven &= err < half
    return h, proven


def _dd_quotient(pf, qf, rf, sh: float, sl: float):
    """(h, low): (p + q*(sh + sl))/r in double-double, w = h + low with
    h = fl(w), by the steps of the module docstring's lemma.  Each array
    is deleted once read, so a call holds a few arrays at a time."""
    m1, m2 = _two_prod(qf, sh)
    n1, e = _two_sum(pf, m1)
    del m1
    e += m2
    del m2
    e += qf * sl
    n1, n2 = _two_sum(n1, e)
    del e
    q1 = n1 / rf
    pi1, pi2 = _two_prod(q1, rf)
    n1 -= pi1  # exact, and then n1 - q1*r, the division's remainder
    del pi1
    n1 -= pi2
    del pi2
    n1 += n2
    del n2
    n1 /= rf
    return _two_sum(q1, n1)


def _coerce(x):
    if isinstance(x, SurdReal):
        return x
    if isinstance(x, int):
        return SurdReal(x)
    if isinstance(x, Fraction):
        return SurdReal(x.numerator, 0, x.denominator, 1)
    return NotImplemented


ZERO = SurdReal(0)
ONE = SurdReal(1)
HALF = SurdReal(1, 0, 2)


class Frame:
    """The lattice {(P + Q*sqrt(d))/R : P, Q integers} of one walk.

    Built once from every value the walk will touch: its start, its
    step and its thresholds.  R is their common denominator and d
    their common field, so each of them embeds exactly as an integer
    pair (P, Q).  Sums and differences of embedded values stay on the
    lattice, which is all a rotation or the leaf turn map needs, and
    x < t is ``_surd_sign(Px - Pt, Qx - Qt, frame.d) < 0``.  Mixing two
    fields raises, with the same message as ``SurdReal`` arithmetic.
    The walkers bind ``R`` and ``d`` once and call ``_surd_sign`` and
    ``_surd_float`` themselves.

    ``key(P, Q)`` is the point's fixed-point key X = (P << 64) + Q*S,
    S = floor(sqrt(d)*2^64), which is additive: a walker moves it by the
    keys of its steps.  The lemma: with e = sqrt(d)*2^64 - S in [0, 1),
    x*R*2^64 = X + Q*e, so for two lattice points x and t

        (x - t)*R*2^64 = (X - Xt) + (Q - Qt)*e.

    Hence if |Q - Qt| <= B, then X - Xt > B proves x > t and X - Xt < -B
    proves x < t; only inside the band |X - Xt| <= B must
    ``_surd_sign(Px - Pt, Qx - Qt, d)``, the one exact sign test, decide.
    """

    __slots__ = ("R", "d")

    def __init__(self, *values: SurdReal):
        R, d = 1, 1
        for v in values:
            if v.q != 0:
                if d == 1:
                    d = v.d
                elif v.d != d:
                    raise ValueError("cannot mix sqrt(%d) with sqrt(%d)" % (d, v.d))
            R = math.lcm(R, v.r)
        self.R = R
        self.d = d

    def embed(self, x: SurdReal) -> tuple[int, int]:
        """(P, Q) with x = (P + Q*sqrt(d))/R; x must lie on the lattice."""
        if self.R % x.r or (x.q != 0 and x.d != self.d):
            raise ValueError("%s is not on the lattice of this frame" % (x.exact_str(),))
        m = self.R // x.r
        return x.p * m, x.q * m

    def surd(self, P: int, Q: int) -> SurdReal:
        """The lattice point as a canonical SurdReal."""
        return SurdReal(P, Q, self.R, self.d)

    def key(self, P: int, Q: int) -> int:
        """(P << 64) + Q*floor(sqrt(d)*2^64), the point's fixed-point key."""
        S = (_ROOTS.get(self.d) or _field_root(self.d)) >> (_SHIFT + _GUARD - _KEY)
        return (P << _KEY) + Q * S


# ---------------------------------------------------------------------------
# records


class Record:
    """A slotted record whose ``_fields`` name its fields, in order.

    Records of one class with equal fields are equal, and a record never
    equals one of another class; repr is ``Name(field=value, ...)``.  Each
    subclass's ``__init__`` takes its fields in ``_fields`` order and
    stores them with one ``_store`` call.  A plain Record is mutable and
    unhashable, as the numpy-path results need.
    """

    __slots__ = ()
    _fields: tuple = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each field's slot descriptor stores into the slot directly, past a
        # frozen record's __setattr__ guard
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls._fields])

    def _store(self, *values) -> None:
        """Store values as the fields, pairing them with ``_fields`` in
        order through the setters ``__init_subclass__`` collected."""
        for store, value in zip(self._setters, values):
            store(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            ["%s=%r" % (name, getattr(self, name)) for name in self._fields]))


class FrozenRecord(Record):
    """An immutable, hashable Record.

    ``__init__`` stores its fields through ``Record._store``, whose slot
    setters go round the guard; after that, assigning or deleting an
    attribute raises AttributeError.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % (type(self).__name__,))

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % (type(self).__name__,))

    def __hash__(self):
        return hash(self._values())


class CertifiedFloat(FrozenRecord):
    """A float with a rigorous two-sided error bound.

    The represented real number lies in [value - radius, value + radius].
    """

    __slots__ = _fields = ("value", "radius")
    value: float
    radius: float

    def __init__(self, value: float, radius: float):
        if not (radius >= 0.0) or math.isnan(value):
            raise ValueError("bad certified float (%r, %r)" % (value, radius))
        self._store(value, radius)


class EscalationCounter:
    """Counts how often certified comparisons fell back to exact arithmetic."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def bump(self, n: int = 1) -> None:
        self.count += n


escalations = EscalationCounter()


# ---------------------------------------------------------------------------
# continued fractions


def _primitive(period: tuple[int, ...]) -> tuple[int, ...]:
    n = len(period)
    for length in range(1, n + 1):
        if n % length == 0 and period == period[:length] * (n // length):
            return period[:length]
    return period


class CFNumber:
    """Eventually periodic continued fraction [0; c1, c2, ...].

    Stored as (preperiod, period) over positive integer coefficients,
    normalized so the period is primitive and the preperiod is as short
    as possible; equal coefficient streams then compare equal.  The
    value is an exact ``SurdReal`` in (0, 1), computed lazily.  The hash
    is computed once, as every lookup of ``renorm``'s beta memo takes it;
    its tower cache keys on the two tuples themselves.
    """

    __slots__ = ("preperiod", "period", "_value", "_hash")

    def __init__(self, preperiod, period):
        pre = tuple(int(c) for c in preperiod)
        per = tuple(int(c) for c in period)
        if not per:
            raise ValueError("period must be nonempty")
        for where, coeffs in (("preperiod", pre), ("period", per)):
            for k, c in enumerate(coeffs):
                if c < 1:
                    raise ValueError(
                        "coefficient %d at %s position %d must be >= 1"
                        % (c, where, k + 1)
                    )
        per = _primitive(per)
        pre = list(pre)
        while pre and pre[-1] == per[-1]:
            pre.pop()
            per = (per[-1],) + per[:-1]
        object.__setattr__(self, "preperiod", tuple(pre))
        object.__setattr__(self, "period", per)
        object.__setattr__(self, "_value", None)
        object.__setattr__(self, "_hash", hash((self.preperiod, per)))

    def __setattr__(self, name, value):
        raise AttributeError("CFNumber is immutable")

    def coefficient(self, i: int) -> int:
        """The i-th coefficient c_i, 1-based."""
        if i < 1:
            raise ValueError("coefficient index is 1-based, got %d" % (i,))
        npre = len(self.preperiod)
        if i <= npre:
            return self.preperiod[i - 1]
        return self.period[(i - 1 - npre) % len(self.period)]

    def shift(self) -> "CFNumber":
        """Drop the first coefficient: [0;c2,c3,...]."""
        if self.preperiod:
            return CFNumber(self.preperiod[1:], self.period)
        return CFNumber((), self.period[1:] + self.period[:1])

    @property
    def value(self) -> SurdReal:
        v = self._value
        if v is None:
            v = cf_value(self)
            object.__setattr__(self, "_value", v)
        return v

    def __eq__(self, other):
        if not isinstance(other, CFNumber):
            return NotImplemented
        return self.preperiod == other.preperiod and self.period == other.period

    def __hash__(self):
        return self._hash

    def __str__(self):
        head = ",".join(str(c) for c in self.preperiod)
        tail = "(" + ",".join(str(c) for c in self.period) + ")"
        if head:
            return "[0;%s,%s]" % (head, tail)
        return "[0;%s]" % (tail,)

    def __repr__(self):
        return "CFNumber[%s]" % (str(self)[1:-1],)


_CF_RE = re.compile(
    r"""^\[\s*0\s*;\s*
        (?P<pre>(?:\d+\s*,\s*)*)
        \(\s*(?P<per>\d+(?:\s*,\s*\d+)*)\s*\)
        \s*\]$""",
    re.VERBOSE,
)


def parse_cf(text: str) -> CFNumber:
    """Parse a literal like "[0;5,(6)]" or "[0;(2)]".

    The integer part must be 0, the period is parenthesized and
    nonempty.  Malformed input raises ValueError naming the offense.
    """
    m = _CF_RE.match(text.strip())
    if m is None:
        for pos, ch in enumerate(text):
            if ch not in "[0;],() \t" and not ch.isdigit():
                raise ValueError(
                    "bad continued fraction literal %r: unexpected %r at index %d"
                    % (text, ch, pos)
                )
        raise ValueError(
            "bad continued fraction literal %r: expected the form [0;a,b,(c,d)]"
            % (text,)
        )
    pre = tuple(int(t) for t in re.findall(r"\d+", m.group("pre")))
    per = tuple(int(t) for t in re.findall(r"\d+", m.group("per")))
    return CFNumber(pre, per)


def _mobius(coeffs) -> tuple[int, int, int, int]:
    # product of [[0,1],[1,c]] over coeffs; sends tail value y to
    # (a*y + b) / (c*y + d)
    a, b, c, d = 1, 0, 0, 1
    for e in coeffs:
        a, b, c, d = b, a + b * e, d, c + d * e
    return a, b, c, d


def cf_value(alpha: CFNumber) -> SurdReal:
    """Exact value of an eventually periodic continued fraction.

    The period gives a Möbius fixed-point equation whose positive root
    is the purely periodic tail; the preperiod is then folded in by
    exact field operations.  The result is irrational by construction;
    a rational outcome means the input was malformed.
    """
    a, b, c, d = _mobius(alpha.period)
    # tail y solves c*y^2 + (d - a)*y - b = 0, with b, c >= 1
    disc = (d - a) * (d - a) + 4 * b * c
    s, d0 = _squarefree_core(disc)
    if d0 == 1:
        raise ValueError("period %r collapses to a rational" % (alpha.period,))
    y = SurdReal(a - d, s, 2 * c, d0)
    a, b, c, d = _mobius(alpha.preperiod)
    value = (y * a + b) / (y * c + d)
    if value.is_rational or not (ZERO < value < ONE):
        raise ValueError("continued fraction %s did not evaluate to (0,1)" % (alpha,))
    return value


def gauss_step(x: SurdReal) -> SurdReal:
    """One step of the Gauss map: frac(1/x), for irrational x in (0, 1).

    On the value of [0;c1,c2,...] this gives the value of [0;c2,c3,...].
    """
    if x.is_rational:
        raise ValueError("gauss_step needs an irrational input, got %s" % (x.exact_str(),))
    if not (ZERO < x < ONE):
        raise ValueError("gauss_step needs x in (0,1), got %r" % (x,))
    return x.reciprocal().frac()


def alpha_next(alpha: CFNumber) -> CFNumber:
    """The successor rotation number: [0;c1,c2,c3,...] -> [0;c2-1,c3,...].

    Exactly the coefficient-level form of G(a)/(1 - G(a)).  Requires
    c2 >= 2 so the new leading coefficient stays positive.
    """
    c2 = alpha.coefficient(2)
    if c2 < 2:
        raise ValueError("alpha_next needs c2 >= 2, got c2 = %d in %s" % (c2, alpha))
    shifted = alpha.shift()
    if shifted.preperiod:
        pre = (shifted.preperiod[0] - 1,) + shifted.preperiod[1:]
        return CFNumber(pre, shifted.period)
    per = shifted.period
    return CFNumber((per[0] - 1,), per[1:] + per[:1])


def expand_coefficients(x: SurdReal, count: int) -> list[int]:
    """First ``count`` continued fraction coefficients of irrational x in (0,1).

    Greedy Gauss expansion with exact floors; the independent check for
    everything built from coefficient surgery.
    """
    out = []
    for _ in range(count):
        y = x.reciprocal()
        a = math.floor(y)
        out.append(a)
        x = y - a
    return out
