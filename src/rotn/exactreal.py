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
escalation counter is module level so tests can assert how often the
slow path fires.

``Frame`` is the lattice the exact orbit walkers run on.  It fixes one
common denominator R and one field Q(sqrt(d)) for every value a walk
touches, and holds each point as an integer pair (P, Q) standing for
(P + Q*sqrt(d))/R.  A rotation step is then two integer adds, and every
comparison is one call of the same integer sign test that
``SurdReal.sign`` uses, against thresholds embedded once.

``CFNumber`` is an eventually periodic continued fraction
[0; c1, c2, ...] normalized to a primitive period and minimal
preperiod, with an exact ``SurdReal`` value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Union

__all__ = [
    "SurdReal",
    "Frame",
    "CertifiedFloat",
    "CFNumber",
    "parse_cf",
    "cf_value",
    "gauss_step",
    "alpha_next",
    "convergent",
    "expand_coefficients",
    "certified_compare",
    "escalations",
]

Rationalish = Union[int, Fraction]


def _squarefree_core(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s*s*d and d square-free, for n >= 1."""
    if n < 1:
        raise ValueError("need a positive integer, got %r" % (n,))
    s = math.isqrt(n)
    if s * s == n:
        return s, 1
    # factoring is off the hot path: discriminants come from CF periods,
    # which are short in practice
    from sympy.ntheory.factor_ import core

    d = int(core(n, 2))
    s = math.isqrt(n // d)
    assert s * s * d == n
    return s, d


class SurdReal:
    """(p + q*sqrt(d))/r, exact.

    Canonical form: r > 0, gcd(p, q, r) = 1, and d square-free with
    d = 1 exactly when q = 0 (the rational case).  Two SurdReals are
    equal iff their canonical tuples are equal; within one field that
    coincides with numeric equality.

    Arithmetic stays inside one field: mixing two irrational operands
    with different d raises.  Construct roots with ``SurdReal.root``,
    which extracts the square part of d.
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
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "d", d)

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
        """Sign of the value as -1, 0 or +1, exactly."""
        return self._sign()

    def _sign(self) -> int:
        """Sign of the value, exactly.  r > 0, so only p + q*sqrt(d) matters."""
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
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other)._sign()

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

    _SHIFT = 72

    def certified(self) -> "CertifiedFloat":
        """Float approximation with a rigorous error radius."""
        if self.q == 0:
            v = self.p / self.r  # correctly rounded for any int sizes
            return CertifiedFloat(v, math.ulp(abs(v)) if v else 5e-324)
        v, den = self._shifted()
        # isqrt error <= 1 gives 1/den; float rounding gives ulp/2; pad both
        return CertifiedFloat(v, 2.0 / den + math.ulp(abs(v)))

    def _shifted(self) -> tuple[float, int]:
        """(value, den) for irrational self: value = num/den rounded once."""
        sh = SurdReal._SHIFT
        s = math.isqrt(self.q * self.q * self.d << (2 * sh))
        if self.q < 0:
            s = -s
        den = self.r << sh
        return ((self.p << sh) + s) / den, den

    def __float__(self) -> float:
        """The value of ``certified()``, without building its radius."""
        if self.q == 0:
            return self.p / self.r
        return self._shifted()[0]

    # -- formatting --------------------------------------------------------

    def exact_str(self) -> str:
        if self.q == 0:
            return "%d/%d" % (self.p, self.r)
        sign = "+" if self.q > 0 else "-"
        return "(%d%s%d*sqrt(%d))/%d" % (self.p, sign, abs(self.q), self.d, self.r)

    def __repr__(self):
        return "SurdReal[%s ~ %.12g]" % (self.exact_str(), float(self))


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
    x < t is ``frame.sign(Px - Pt, Qx - Qt) < 0``.  Mixing two fields
    raises, with the same message as ``SurdReal`` arithmetic.
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

    def sign(self, P: int, Q: int) -> int:
        """Sign of the lattice point (P + Q*sqrt(d))/R, exactly."""
        return _surd_sign(P, Q, self.d)

    def surd(self, P: int, Q: int) -> SurdReal:
        """The lattice point as a canonical SurdReal."""
        return SurdReal(P, Q, self.R, self.d)


@dataclass(frozen=True)
class CertifiedFloat:
    """A float with a rigorous two-sided error bound.

    The represented real number lies in [value - radius, value + radius].
    """

    value: float
    radius: float

    def __post_init__(self):
        if not (self.radius >= 0.0) or math.isnan(self.value):
            raise ValueError("bad certified float (%r, %r)" % (self.value, self.radius))

    def separated_from(self, other: "CertifiedFloat") -> bool:
        """True when the two intervals do not overlap."""
        return abs(self.value - other.value) > self.radius + other.radius


class EscalationCounter:
    """Counts how often certified comparisons fell back to exact arithmetic."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def bump(self, n: int = 1) -> None:
        self.count += n

    def reset(self) -> int:
        n, self.count = self.count, 0
        return n


escalations = EscalationCounter()


def _threshold_certified(threshold) -> CertifiedFloat:
    if isinstance(threshold, SurdReal):
        return threshold.certified()
    f = Fraction(threshold)
    v = f.numerator / f.denominator
    return CertifiedFloat(v, math.ulp(abs(v)) if v else 5e-324)


def certified_compare(
    x: CertifiedFloat,
    threshold: Union[Rationalish, SurdReal],
    fallback: Callable[[], SurdReal],
) -> int:
    """Order x against threshold: -1 or +1, never 0.

    Decides from the certified intervals when they are disjoint;
    otherwise calls ``fallback()`` for the exact value and compares
    exactly (bumping the module escalation counter).  An exact tie
    raises: the quantities compared in this package (orbit points
    against 1/2 or 0) are provably never equal, so a tie means the
    caller fed us a bad point.
    """
    t = _threshold_certified(threshold)
    if x.separated_from(t):
        return 1 if x.value > t.value else -1
    escalations.bump()
    exact = fallback()
    if not isinstance(threshold, SurdReal):
        threshold = SurdReal.from_fraction(threshold)
    s = (exact - threshold)._sign()
    if s == 0:
        raise ValueError(
            "exact tie against threshold %s" % (threshold.exact_str(),)
        )
    return s


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
    value is an exact ``SurdReal`` in (0, 1), computed lazily.
    """

    __slots__ = ("preperiod", "period", "_value")

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

    def coefficients(self) -> Iterator[int]:
        """Infinite coefficient stream c1, c2, ..."""
        yield from self.preperiod
        while True:
            yield from self.period

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
        return hash((self.preperiod, self.period))

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


def convergent(alpha: CFNumber, k: int) -> Fraction:
    """The k-th convergent p_k/q_k, k >= 1, from the first k coefficients."""
    if k < 1:
        raise ValueError("convergent index must be >= 1, got %d" % (k,))
    p0, q0 = 0, 1  # p_0/q_0
    p1, q1 = 1, alpha.coefficient(1)  # p_1/q_1
    for i in range(2, k + 1):
        c = alpha.coefficient(i)
        p0, p1 = p1, c * p1 + p0
        q0, q1 = q1, c * q1 + q0
    return Fraction(p1, q1)


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
