"""The renormalization tower of return maps and its substitution words.

For an admissible rotation number (continued fraction [0;a1,a2,...] with
a1 odd and >= 5, every later coefficient even and >= 6) there is a
nested sequence of half-open intervals I_1 = [0,1) > I_2 > ... , each
symmetric about 1/2, on which the first-return map of the rotation is
again a rotation: by beta_i = +alpha_i on odd levels and -alpha_i on
even levels in the local coordinate of I_i, where alpha_1 = alpha and
alpha_(i+1) = G(alpha_i)/(1 - G(alpha_i)) (G the Gauss map; on
coefficients, drop the head and decrement the new head).

Each level carries three return words over {+1,-1}: the sign sequences
F_plus, F_minus, F_zero that the orbit of x writes between visits,
depending on which of three subintervals of I_i (in local coordinates)
x falls in: the rows of ``_case_regions``.  One renormalization step
rewrites them by a substitution with exponent n = (b-1)/2, b the
leading CF coefficient of |beta|, which ``RenormLevel.n_half`` reads
off the level's continued fraction:

    beta > 0:  F+' = F+ F-^n F0 F+^n          beta < 0:  F+' = F+^(n+1) F0 F-^n
               F-' = F-^(n+1) F0 F+^n                    F-' = F- F+^n F0 F-^n
               F0' = F+ F-^(n+1) F0 F+^n                 F0' = F- F+^(n+1) F0 F-^n

Totals are always (+1, -1, 0); lengths are the return times.  The word
DAG keeps all of this O(1) per level, so prefix extrema of return words
at level 40 (length ~ 10^28) are a few integer operations.

The orbit of 1/2 writes F_minus of every level as its opening letters,
so ``half_word`` reads the signs of that orbit off the tower, and
``fast_birkhoff`` its sums; the word of any other start, or of an alpha
with no tower, is ``euclid.sign_word``'s, which never reads the tower.

``oracle_first_return`` is the dual route: simulate the rotation point
by point in exact arithmetic until it re-enters I_i and record what it
did.  It shares no code with the substitution side, which is exactly
why their agreement is evidence.  It walks on an ``exactreal.Frame``
holding the start, alpha, 1/2 and the interval endpoints, so a step is
integer adds on the point's ``Frame.key`` alone, and each side is read
off that key unless it lies within the walk's band of a threshold's;
there the point's pair is formed from its counts of steps and wraps,
and the exact sign test ``_surd_sign`` decides.  Only the landing point
is turned back into a ``SurdReal``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import count, islice

from .exactreal import (HALF, ONE, ZERO, CFNumber, Frame, FrozenRecord, SurdReal,
                        alpha_next, _surd_sign, gauss_step)
from .words import SignWord, concat, concat_all, empty, power, prefix_sum_at
from .words import MINUS, PLUS

__all__ = [
    "ExactInterval",
    "RenormLevel",
    "ReturnRecord",
    "BoundsCheck",
    "admissible",
    "base_level",
    "step",
    "tower",
    "verify_bounds",
    "verify_chains",
    "oracle_first_return",
    "fast_birkhoff",
    "half_word",
    "MAX_LEVELS",
]

class ExactInterval(FrozenRecord):
    """Half-open [left, right) with exact endpoints, symmetric about 1/2.

    ``length`` is right - left, stored at construction: ``step`` forms
    each level's interval from the next length (``_centred``), and the
    local chart reads it at every orbit point.  It is stored but is not
    a field: equality, hash and repr leave it out.
    """

    _fields = ("left", "right")
    __slots__ = _fields + ("length",)
    left: SurdReal
    right: SurdReal
    length: SurdReal

    def __init__(self, left: SurdReal, right: SurdReal):
        self._check_store(left, right, right - left)

    @classmethod
    def _centred(cls, length: SurdReal) -> "ExactInterval":
        """[1/2 - length/2, 1/2 + length/2), as ``step`` builds each level's.

        With length = (p + q*sqrt(d))/r the endpoints are (r -+ p -+
        q*sqrt(d))/(2r), one SurdReal each, and the public constructor's
        exact tests check them.
        """
        p, q, r, d = length.p, length.q, length.r, length.d
        self = cls.__new__(cls)
        self._check_store(SurdReal(r - p, -q, 2 * r, d), SurdReal(r + p, q, 2 * r, d),
                          length)
        return self

    def _check_store(self, left: SurdReal, right: SurdReal, length: SurdReal) -> None:
        """Refuse an empty or asymmetric interval, else store it."""
        if length.sign() <= 0:
            raise ValueError("empty interval")
        if left + right != ONE:
            raise ValueError(
                "interval [%s, %s) is not symmetric about 1/2"
                % (left.exact_str(), right.exact_str())
            )
        self._store(left, right)
        _set_length(self, length)

    def contains(self, x: SurdReal) -> bool:
        return self.left <= x < self.right

    def to_local(self, x: SurdReal) -> SurdReal:
        """Affine chart sending [left, right) to [0, 1)."""
        return (x - self.left) / self.length

    def from_local(self, y: SurdReal) -> SurdReal:
        return self.left + y * self.length


_set_length = ExactInterval.length.__set__


class RenormLevel(FrozenRecord):
    """One floor of the tower.

    beta is the signed rotation number of the first-return map in the
    local chart of ``interval``: positive on odd levels, negative on
    even ones.  beta_cf is the continued fraction of |beta|; the
    exponent the next substitution uses, n_half, is read off it.
    base_alpha is the rotation being renormalized (level 1's beta),
    kept so the simulation oracle can run without extra context.
    """

    __slots__ = _fields = ("index", "interval", "beta", "beta_cf",
                           "f_plus", "f_minus", "f_zero", "base_alpha")
    index: int
    interval: ExactInterval
    beta: SurdReal
    beta_cf: CFNumber
    f_plus: SignWord
    f_minus: SignWord
    f_zero: SignWord
    base_alpha: SurdReal

    def __init__(self, index: int, interval: ExactInterval, beta: SurdReal,
                 beta_cf: CFNumber, f_plus: SignWord, f_minus: SignWord, f_zero: SignWord,
                 base_alpha: SurdReal):
        sign = 1 if index % 2 == 1 else -1
        if beta.sign() != sign:
            raise ValueError(
                "level %d must have beta of sign %+d" % (index, sign)
            )
        if (beta if sign > 0 else -beta) != beta_cf.value:
            raise ValueError(
                "level %d has |beta| = %s, not the value of %s"
                % (index, beta.exact_str(), beta_cf)
            )
        if not (f_plus.total == 1 and f_minus.total == -1):
            raise ValueError("return words must have totals +1/-1")
        if f_zero.length and f_zero.total != 0:
            raise ValueError("F_zero must have total 0")
        self._store(index, interval, beta, beta_cf, f_plus, f_minus, f_zero, base_alpha)

    @property
    def n_half(self) -> int:
        """(b - 1)/2 for the leading coefficient b of beta_cf."""
        return (self.beta_cf.coefficient(1) - 1) // 2

    @property
    def stats(self) -> dict:
        """The four prefix extrema that verify_bounds checks level to level."""
        return {
            "max_plus": self.f_plus.max_prefix,
            "min_plus": self.f_plus.min_prefix,
            "max_minus": self.f_minus.max_prefix,
            "min_minus": self.f_minus.min_prefix,
        }


def _inadmissibility(alpha: CFNumber) -> str | None:
    """Why alpha breaks the tower hypothesis, or None when it holds.

    The hypothesis: a1 odd >= 5, everything after even >= 6.
    """
    a1 = alpha.coefficient(1)
    if a1 % 2 == 0 or a1 < 5:
        return "coefficient a1 = %d of %s must be odd and >= 5" % (a1, alpha)
    # two periods past the preperiod covers every distinct position,
    # including a period head that recycles into position 1's slot
    horizon = len(alpha.preperiod) + 2 * len(alpha.period)
    for i in range(2, horizon + 1):
        c = alpha.coefficient(i)
        if c % 2 == 1 or c < 6:
            return "coefficient a%d = %d of %s must be even and >= 6" % (i, c, alpha)
    return None


def admissible(alpha: CFNumber) -> bool:
    """Whether alpha has a renormalization tower: a1 odd >= 5, the rest even >= 6."""
    return _inadmissibility(alpha) is None


def base_level(alpha: CFNumber) -> RenormLevel:
    """Level 1: the rotation itself on I_1 = [0, 1), one-letter words."""
    reason = _inadmissibility(alpha)
    if reason is not None:
        raise ValueError(reason)
    value = alpha.value
    return RenormLevel(
        index=1,
        interval=ExactInterval(ZERO, ONE),
        beta=value,
        beta_cf=alpha,
        f_plus=PLUS,
        f_minus=MINUS,
        f_zero=empty(),
        base_alpha=value,
    )


@lru_cache(maxsize=1024)
def _beta_step(beta_cf: CFNumber) -> tuple[SurdReal, SurdReal, CFNumber]:
    """The exact beta arithmetic of ``step``, a function of beta_cf alone.

    With |beta| = beta_cf.value and g = G(|beta|), returns the scale
    |beta|(1 - g) by which the next interval is shorter, the next
    |beta| = g/(1 - g) and its continued fraction (whose value is then
    cached on it).  Checks the contraction (scale <= |beta|, the
    interval inequality divided by the positive length), the
    coefficient surgery against the Gauss map, and that the fraction's
    leading coefficient b, from which the next level reads its n_half,
    is odd and >= 5.  A tail of an eventually periodic
    fraction recurs once a period, so a tower runs this once per
    distinct tail; the memo is bounded, and a failed check is never
    cached.
    """
    beta_abs = beta_cf.value
    g = gauss_step(beta_abs)
    co_g = ONE - g
    scale = beta_abs * co_g
    if not (scale <= beta_abs):
        raise AssertionError("contraction failed for |beta| = %s" % (beta_cf,))
    new_beta_abs = g / co_g
    new_cf = alpha_next(beta_cf)
    if new_cf.value != new_beta_abs:
        raise AssertionError(
            "coefficient surgery and Gauss map disagree after %s" % (beta_cf,)
        )
    b = new_cf.coefficient(1)
    if b % 2 == 0 or b < 5:
        raise ValueError(
            "next level needs an odd leading coefficient >= 5, got %d" % (b,)
        )
    return scale, new_beta_abs, new_cf


def step(level: RenormLevel) -> RenormLevel:
    """One renormalization: I_(i+1) inside I_i and the rewritten words."""
    n = level.n_half
    scale, new_beta_abs, new_cf = _beta_step(level.beta_cf)
    interval = ExactInterval._centred(scale * level.interval.length)

    # the rules for beta < 0 are those for beta > 0 with F+ and F- swapped:
    # F_a' = F_a F_b^n F0 F_a^n, F_b' = F_b^(n+1) F0 F_a^n, F0' = F_a F_b^(n+1) F0 F_a^n
    positive = level.beta.sign() > 0
    f0 = level.f_zero
    a, b = (level.f_plus, level.f_minus) if positive else (level.f_minus, level.f_plus)
    a_n, b_n1 = power(a, n), power(b, n + 1)
    new_a = concat_all([a, power(b, n), f0, a_n])
    new_b = concat_all([b_n1, f0, a_n])
    new_zero = concat_all([a, b_n1, f0, a_n])
    new_plus, new_minus = (new_a, new_b) if positive else (new_b, new_a)

    return RenormLevel(
        index=level.index + 1,
        interval=interval,
        beta=-new_beta_abs if positive else new_beta_abs,
        beta_cf=new_cf,
        f_plus=new_plus,
        f_minus=new_minus,
        f_zero=new_zero,
        base_alpha=level.base_alpha,
    )


# The most levels a tower holds: where levels are appended, a deeper
# one is refused with ValueError.  It is the most a command builds
# (example --kmax 500).  A level's integers are a digit or so longer than
# the last's, so each level costs more: the 1001 levels of
# [0;21,(30,28,26)] end at 1,450 digits and took 0.12 s on a 2-core host.
# Each level's words are at least three times as long as the last's, so
# 1001 levels answer every prefix of up to 3^1000 > 10^477 letters.
MAX_LEVELS = 1001


class _Tower:
    """One alpha's tower: its levels, which callers grow in place, the
    lengths of their F_minus words, kept in step by ``grow``, and the
    reach, the length of level MAX_LEVELS's F_minus, read off alpha's
    coefficients by ``_lengths`` the first time a prefix passes _SURE.
    The cache key holds no alpha, so a record starts empty and ``grow``
    builds level 1 from the alpha its caller holds (whose value that
    caller has often evaluated already); an alpha ``base_level`` refuses
    leaves its record empty."""

    __slots__ = ("levels", "minus", "_reach")

    def __init__(self):
        self.levels, self.minus, self._reach = [], [], None

    def grow(self, alpha: CFNumber, depth: int) -> None:
        """Append levels until there are depth of them."""
        levels, minus = self.levels, self.minus
        while len(levels) < depth:
            level = step(levels[-1]) if levels else base_level(alpha)
            levels.append(level)
            minus.append(level.f_minus.length)

    def reach(self, alpha: CFNumber) -> int:
        """The longest prefix ``half_word`` answers, computed without
        building a level."""
        if self._reach is None:
            self._reach = next(islice(_lengths(alpha), MAX_LEVELS - 1, None))[1]
        return self._reach


@lru_cache(maxsize=32)
def _towers(key: tuple) -> _Tower:
    """The tower record of the alpha with key (preperiod, period).

    Keyed by CFNumber's normalized coefficient tuples, whose hash and
    equality run in C, the cache holds the towers of at most 32 alphas
    and drops the least recently used first.  A caller keeps its own
    list alive, and an evicted tower is rebuilt on demand; live words
    are interned, so the rebuilt levels hold the very words a caller
    kept.
    """
    return _Tower()


def tower(alpha: CFNumber, depth: int) -> list[RenormLevel]:
    """Levels 1..depth, at most MAX_LEVELS.  Levels are deterministic, so
    they are cached."""
    if depth < 1:
        raise ValueError("depth must be >= 1, got %r" % (depth,))
    if depth > MAX_LEVELS:
        raise ValueError("depth %d is above the limit of %d tower levels"
                         % (depth, MAX_LEVELS))
    record = _towers((alpha.preperiod, alpha.period))
    record.grow(alpha, depth)
    return record.levels[:depth]


def _lengths(alpha: CFNumber):
    """The lengths of (F_plus, F_minus, F_zero) at levels 1, 2, ..., from
    `step`'s rules in lengths alone: level i takes n = n_half = (b - 1)/2,
    b the leading coefficient of its beta_cf (a_1, then a_i - 1, as
    ``alpha_next`` makes it), and with a and c the lengths of F_plus and
    F_minus on an odd level, of F_minus and F_plus on an even one (beta's
    sign alternates), and z that of F_zero, the next level's are
    (n + 1)a + nc + z in a's place, (n + 1)c + na + z in c's, and
    (n + 1)(a + c) + z."""
    plus, minus, zero = 1, 1, 0
    for i in count(1):
        yield plus, minus, zero
        b = alpha.coefficient(1) if i == 1 else alpha.coefficient(i) - 1
        n = (b - 1) // 2
        a, c = (plus, minus) if i % 2 else (minus, plus)
        a, c, zero = ((n + 1) * a + n * c + zero, (n + 1) * c + n * a + zero,
                      (n + 1) * (a + c) + zero)
        plus, minus = (a, c) if i % 2 else (c, a)


# below the reach of every admissible alpha: each word is at least 5 times
# as long as the shorter of F_plus and F_minus a level before (n >= 2), so
# level MAX_LEVELS's are at least 5^(MAX_LEVELS - 1) long; so only a
# longer prefix needs its reach computed
_SURE = 3 ** (MAX_LEVELS - 1)


def half_word(alpha: CFNumber, n: int) -> SignWord:
    """F_minus of the shallowest level with at least n letters.

    1/2 sits at local coordinate 1/2 of every level, so the orbit of
    1/2 writes F_minus of each level as its opening letters: the words
    are nested prefixes of one another, and the first n letters of the
    returned word are the signs f(t^j(1/2)), j = 0..n-1.  Each level is
    at least three times as long as the last, so the tower grows by
    O(log n) levels at most; past MAX_LEVELS it raises ValueError, and
    before a level is built for an n beyond the tower's reach.
    """
    record = _towers((alpha.preperiod, alpha.period))
    minus = record.minus
    while not minus or minus[-1] < n:
        if len(minus) >= MAX_LEVELS or n > _SURE and n > record.reach(alpha):
            raise ValueError("n of %d bits needs more than the limit of %d tower levels"
                             % (n.bit_length(), MAX_LEVELS))
        record.grow(alpha, len(minus) + 1)
    return record.levels[bisect_left(minus, n)].f_minus


# ---------------------------------------------------------------------------
# bounds


class BoundsCheck(FrozenRecord):
    """One verified inequality between word stats."""

    __slots__ = _fields = ("level", "name", "lhs", "ok")
    level: int
    name: str
    lhs: int
    ok: bool

    def __init__(self, level: int, name: str, lhs: int, ok: bool):
        self._store(level, name, lhs, ok)


def _ineq(level: int, name: str, lhs: int, relation: str, rhs: int) -> BoundsCheck:
    ok = lhs >= rhs if relation == ">=" else lhs <= rhs
    return BoundsCheck(level, "%s %s %s" % (name, relation, rhs), lhs, ok)


def verify_bounds(
    parent: RenormLevel, child: RenormLevel, *, strict: bool = True
) -> list[BoundsCheck]:
    """The per-step growth/decay inequalities of the prefix extrema.

    With n = parent.n_half and primes on the child:

        parent beta > 0:   M+' >= M+          m+' <= m- - (n - 2)
                           M-' >= M-          m-' <= m- - n
        parent beta < 0:   M+' >= M+ + n      m+' <= m+
                           M-' >= M+ + n - 2  m-' <= m-
    """
    if child.index != parent.index + 1:
        raise ValueError("levels %d and %d are not consecutive" % (parent.index, child.index))
    n = parent.n_half
    Mp, mp = parent.f_plus.max_prefix, parent.f_plus.min_prefix
    Mm, mm = parent.f_minus.max_prefix, parent.f_minus.min_prefix
    cMp, cmp_ = child.f_plus.max_prefix, child.f_plus.min_prefix
    cMm, cmm = child.f_minus.max_prefix, child.f_minus.min_prefix
    lvl = child.index
    if parent.beta.sign() > 0:
        rows = [
            _ineq(lvl, "max_plus'", cMp, ">=", Mp),
            _ineq(lvl, "min_plus'", cmp_, "<=", mm - (n - 2)),
            _ineq(lvl, "max_minus'", cMm, ">=", Mm),
            _ineq(lvl, "min_minus'", cmm, "<=", mm - n),
        ]
    else:
        rows = [
            _ineq(lvl, "max_plus'", cMp, ">=", Mp + n),
            _ineq(lvl, "min_plus'", cmp_, "<=", mp),
            _ineq(lvl, "max_minus'", cMm, ">=", Mp + (n - 2)),
            _ineq(lvl, "min_minus'", cmm, "<=", mm),
        ]
    bad = [r for r in rows if not r.ok]
    if strict and bad:
        raise AssertionError(
            "bounds violated at level %d: %s"
            % (lvl, "; ".join("%s (lhs=%d)" % (r.name, r.lhs) for r in bad))
        )
    return rows


def verify_chains(levels: list[RenormLevel], *, strict: bool = True) -> list[BoundsCheck]:
    """Cross-level consequences that force divergence of the extrema.

    For every level i with i + 2 in range: min_minus drops by at least
    2 from level i to i + 2.  Across each odd/even pair:
    max_minus(2i+2) >= max_minus(2i+1) >= max_plus(2i) + (n_(2i) - 2).
    """
    rows = []
    for i in range(len(levels) - 2):
        a, c = levels[i], levels[i + 2]
        rows.append(
            _ineq(c.index, "min_minus drop", c.f_minus.min_prefix, "<=",
                  a.f_minus.min_prefix - 2)
        )
    for i in range(1, len(levels) - 2, 2):  # levels[i] has even index 2, 4, ...
        even, odd, nxt = levels[i], levels[i + 1], levels[i + 2]
        rows.append(
            _ineq(odd.index, "max_minus riser", odd.f_minus.max_prefix, ">=",
                  even.f_plus.max_prefix + (even.n_half - 2))
        )
        rows.append(
            _ineq(nxt.index, "max_minus keeps", nxt.f_minus.max_prefix, ">=",
                  odd.f_minus.max_prefix)
        )
        rows.append(
            _ineq(nxt.index, "max_minus two-step", nxt.f_minus.max_prefix, ">=",
                  even.f_plus.max_prefix)
        )
    bad = [r for r in rows if not r.ok]
    if strict and bad:
        raise AssertionError(
            "chain inequalities violated: %s"
            % ("; ".join("level %d %s" % (r.level, r.name) for r in bad))
        )
    return rows


# ---------------------------------------------------------------------------
# the two routes to the first return


class ReturnRecord(FrozenRecord):
    """What the simulated orbit did between visits to the interval."""

    __slots__ = _fields = ("time", "word", "landing")
    time: int
    word: tuple
    landing: SurdReal

    def __init__(self, time: int, word: tuple, landing: SurdReal):
        self._store(time, word, landing)


def oracle_first_return(level: RenormLevel, x: SurdReal) -> ReturnRecord:
    """Simulate the rotation in exact arithmetic until it re-enters I_i.

    Records the sign word written along the way.  The step budget is
    10 * (len(F_minus) + len(F_zero)); a correct tower returns well
    within it, so exceeding it is a hard error, not a longer wait.
    The loop steps only the point's ``Frame.key`` X and counts the
    steps t and the wraps w: the point is (P + t*Pa - w*R, Q + t*Qa)
    for the start (P, Q), and that pair is formed only where a
    comparison's keys fall within the walk's bound on |Q| of each other
    and ``_surd_sign`` must decide, and once for the landing.
    """
    interval = level.interval
    if not interval.contains(x):
        raise ValueError(
            "oracle start %s is outside level %d" % (x.exact_str(), level.index)
        )
    alpha = level.base_alpha
    budget = 10 * (level.f_minus.length + level.f_zero.length)
    frame = Frame(x, alpha, HALF, interval.left, interval.right)
    R, d, sign, key = frame.R, frame.d, _surd_sign, frame.key
    P, Q = frame.embed(x)
    Pa, Qa = frame.embed(alpha)
    Ph, _ = frame.embed(HALF)
    Pl, Ql = frame.embed(interval.left)
    Pr, Qr = frame.embed(interval.right)
    # every tested pair differs from its threshold's Q by at most B, so
    # a key further than B from the threshold's key decides the test
    B = abs(Q) + budget * abs(Qa) + abs(Ql) + abs(Qr)
    X, Xa, Xw = key(P, Q), key(Pa, Qa), key(R, 0)
    w_lo, w_hi = Xw - B, Xw + B
    h_lo, h_hi = key(Ph, 0) - B, key(Ph, 0) + B
    l_lo, l_hi = key(Pl, Ql) - B, key(Pl, Ql) + B
    r_lo, r_hi = key(Pr, Qr) - B, key(Pr, Qr) + B

    def side(t: int, w: int, Pt: int, Qt: int) -> int:
        """The sign of the point after t steps and w wraps minus (Pt, Qt)."""
        return sign(P + t * Pa - w * R - Pt, Q + t * Qa - Qt, d)

    # alpha is in (0, 1), so a step wraps at most once; when alpha < 1/2
    # a point left of 1/2 cannot wrap at all
    short = sign(Ph - Pa, -Qa, d) > 0
    left = X < h_lo or (X <= h_hi and side(0, 0, Ph, 0) < 0)
    word, w = [], 0
    for t in range(1, budget + 1):
        word.append(1 if left else -1)
        X += Xa
        if not (short and left) and (X > w_hi or (X >= w_lo and side(t, w, R, 0) >= 0)):
            w += 1
            X -= Xw
        # the interval is symmetric about 1/2, so the side of 1/2 the
        # point is on tells which endpoint can exclude it
        left = X < h_lo or (X <= h_hi and side(t, w, Ph, 0) < 0)
        if left:
            back = X > l_hi or (X >= l_lo and side(t, w, Pl, Ql) >= 0)
        else:
            back = X < r_lo or (X <= r_hi and side(t, w, Pr, Qr) < 0)
        if back:
            return ReturnRecord(time=t, word=tuple(word),
                                landing=frame.surd(P + t * Pa - w * R, Q + t * Qa))
    raise RuntimeError(
        "no return to level %d within %d steps from %s"
        % (level.index, budget, x.exact_str())
    )


def _case_regions(level: RenormLevel) -> list[tuple[str, SurdReal, SurdReal, SignWord]]:
    """The three case regions of I_i's local chart, left to right, as rows
    (name, lo, hi, word): a point at local coordinate y in [lo, hi)
    writes ``word`` before its next visit to I_i.

        beta > 0:  [0, 1/2) -> F+   [1/2, 1-beta) -> F-   [1-beta, 1) -> F- F0
        beta < 0:  [0, |beta|) -> F+ F0   [|beta|, 1/2) -> F+   [1/2, 1) -> F-
    """
    if level.beta.sign() > 0:
        split = ONE - level.beta
        return [("plus", ZERO, HALF, level.f_plus), ("minus", HALF, split, level.f_minus),
                ("minus_zero", split, ONE, concat(level.f_minus, level.f_zero))]
    gamma = -level.beta
    return [("plus_zero", ZERO, gamma, concat(level.f_plus, level.f_zero)),
            ("plus", gamma, HALF, level.f_plus), ("minus", HALF, ONE, level.f_minus)]


def _local_return_word(level: RenormLevel, y: SurdReal) -> SignWord:
    """The return word the substitution rules predict for the point of I_i
    whose local coordinate is y in [0, 1): the word of y's row of
    ``_case_regions``.

    Landing exactly on the interior case boundary (1 - beta or |beta|,
    the one row end other than 0, 1/2 and 1) is refused; those points
    are measure zero and the caller should perturb.  The return lands at
    local coordinate frac(y + beta).
    """
    for _, lo, hi, word in _case_regions(level):
        if y < hi:
            break
    if y == lo and lo != HALF and lo.sign():
        raise ValueError("local coordinate sits exactly on the case boundary")
    return word


def fast_birkhoff(alpha: CFNumber, n: int) -> int:
    """S_n(1/2) in O(tower depth): a prefix sum of ``half_word``."""
    if n < 0:
        raise ValueError("fast_birkhoff needs n >= 0, got %d" % (n,))
    return prefix_sum_at(half_word(alpha, n), n)

