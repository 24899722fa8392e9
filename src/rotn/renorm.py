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

``oracle_first_return`` is the dual route: simulate the rotation point
by point in exact arithmetic until it re-enters I_i and record what it
did.  It shares no code with the substitution side, which is exactly
why their agreement is evidence.  It walks on an ``exactreal.Frame``
holding the start, alpha, 1/2 and the interval endpoints, so a step is
integer adds, and each side is read off the point's ``Frame.key``
unless the key lies within the walk's band of a threshold's, where the
exact sign test ``_surd_sign`` decides; only the landing point is
turned back into a ``SurdReal``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from operator import attrgetter

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
    "orbit_word",
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


@lru_cache(maxsize=32)
def _cached_levels(alpha: CFNumber) -> list[RenormLevel]:
    """The cached list of alpha's levels, which callers grow in place.

    The cache holds the towers of at most 32 alphas and drops the least
    recently used first.  A caller keeps its own list alive, and an
    evicted tower is rebuilt on demand; live words are interned, so the
    rebuilt levels hold the very words a caller kept.
    """
    return [base_level(alpha)]


def tower(alpha: CFNumber, depth: int) -> list[RenormLevel]:
    """Levels 1..depth, at most MAX_LEVELS.  Levels are deterministic, so
    they are cached."""
    if depth < 1:
        raise ValueError("depth must be >= 1, got %r" % (depth,))
    if depth > MAX_LEVELS:
        raise ValueError("depth %d is above the limit of %d tower levels"
                         % (depth, MAX_LEVELS))
    levels = _cached_levels(alpha)
    while len(levels) < depth:
        levels.append(step(levels[-1]))
    return levels[:depth]


@lru_cache(maxsize=32)
def _reach(alpha: CFNumber) -> int:
    """A bound on the prefixes that MAX_LEVELS levels of alpha's tower answer.

    Level i's words have at most L_i letters: L_1 = 1, and `step` makes
    each new word of at most 2n + 3 words of the level (F0' = F_a
    F_b^(n+1) F0 F_a^n), so L_(i+1) <= (2n_i + 3)*L_i = (b_i + 2)*L_i,
    b_i = 2n_i + 1 the leading coefficient of level i's beta_cf: a_1,
    then a_i - 1 (``alpha_next``).  So L_i <= U_i = prod_(k<i) (b_k + 2).
    ``half_word`` answers n only if n <= L_MAX.  ``orbit_word`` appends
    at most 4n_i + 2 returns of level i, each of at most L_i letters,
    then one word of the level where it stops, so it answers only
    n <= sum_(i<=MAX) (4n_i + 3)*L_i <= sum 2*U_(i+1) <= 3*U_(MAX+1), as
    U grows by b + 2 >= 7 a level.  That is the bound returned.
    """
    U = alpha.coefficient(1) + 2
    for i in range(2, MAX_LEVELS + 1):
        U *= alpha.coefficient(i) + 1
    return 3 * U


# below _reach of every admissible alpha, whose U grows by at least 7 a
# level, so only a longer prefix needs its bound computed
_SURE = 3 ** (MAX_LEVELS - 1)


def _levels_for(alpha: CFNumber, n: int) -> list[RenormLevel]:
    """alpha's cached levels, on the way to a prefix of n letters; an n
    beyond ``_reach`` is refused at once, before a level is built or read."""
    levels = _cached_levels(alpha)
    if n > _SURE and n > _reach(alpha):
        raise _too_deep(n)
    return levels


def _too_deep(n: int) -> ValueError:
    return ValueError("n of %d bits needs more than the limit of %d tower levels"
                      % (n.bit_length(), MAX_LEVELS))


def _grow(levels: list[RenormLevel], n: int) -> None:
    """Append the next level to levels, on the way to a prefix of n letters;
    past MAX_LEVELS levels raise ValueError instead."""
    if len(levels) >= MAX_LEVELS:
        raise _too_deep(n)
    levels.append(step(levels[-1]))


_F_MINUS_LENGTH = attrgetter("f_minus.length")


def half_word(alpha: CFNumber, n: int) -> SignWord:
    """F_minus of the shallowest level with at least n letters.

    1/2 sits at local coordinate 1/2 of every level, so the orbit of
    1/2 writes F_minus of each level as its opening letters: the words
    are nested prefixes of one another, and the first n letters of the
    returned word are the signs f(t^j(1/2)), j = 0..n-1.  Each level is
    at least three times as long as the last, so the tower grows by
    O(log n) levels at most; past MAX_LEVELS it raises ValueError, at
    once for an n beyond ``_reach``.
    """
    levels = _levels_for(alpha, n)
    while levels[-1].f_minus.length < n:
        _grow(levels, n)
    return levels[bisect_left(levels, n, key=_F_MINUS_LENGTH)].f_minus


def _returns_bound(level: RenormLevel) -> int:
    """Most return-map steps the orbit of a point of I_i takes to enter I_(i+1).

    In the local chart of I_i the return map is rotation by beta, with
    |beta| = 1/(b + g) for the leading coefficient b = 2*n_half + 1 and
    g = G(|beta|) < 1/6, and I_(i+1) is |beta|*(1 - g) long.  After b
    steps a point sits delta = g*|beta| from where it started, so the
    first 2b + 1 points of any orbit are x_j and x_j - delta, j < b,
    and x_0 - 2*delta, whose gaps are delta or |beta| - delta, all at
    most the length of I_(i+1): one of them lies in it, after at most 2b
    steps.  Random starts in five fields reach 2b at every level.
    """
    return 4 * level.n_half + 2


def orbit_word(alpha: CFNumber, x: SurdReal, n: int) -> SignWord:
    """A word whose first n letters are f(t^j(x)), j = 0..n-1, for exact x in [0, 1).

    Follows x down the tower: at level i, the return word that
    ``_local_return_word`` names for x covers the orbit up to its next
    visit to I_i.  If that word reaches n letters, the descent stops;
    if x lies in I_(i+1) it moves down a level, whose returns are made
    of level-i returns; otherwise the word is appended and x moves on
    by the return map.  Each level takes at most 4*n_half + 2
    returns (see ``_returns_bound``; more raise RuntimeError), so the
    cost is O(depth * b) exact operations whatever n is, and the word
    is built from the levels' words, so its prefix readers cost the
    same.  A start outside [0, 1), outside alpha's field, or whose orbit
    meets a case boundary (a singular orbit) raises ValueError, as does
    a descent past MAX_LEVELS levels, at once for an n beyond ``_reach``.
    """
    if n < 0:
        raise ValueError("orbit_word needs n >= 0, got %d" % (n,))
    if not ZERO <= x < ONE:
        raise ValueError("start %s is outside [0, 1)" % (x.exact_str(),))
    if x.q and x.d != alpha.value.d:
        raise ValueError("start %s is not in the field of %s" % (x.exact_str(), alpha))
    levels = _levels_for(alpha, n)
    start = x
    parts = []  # [word, repeats]: runs of one return word at one level
    length = 0
    i = returns = 0  # the level, and the returns taken on it
    while True:
        lvl = levels[i]
        y = lvl.interval.to_local(x)
        try:
            w = _local_return_word(lvl, y)
        except ValueError:
            raise ValueError("the orbit of %s meets a case boundary of level %d"
                             % (start.exact_str(), lvl.index)) from None
        if length + w.length >= n:
            parts.append([w, 1])
            break
        if i + 1 == len(levels):
            _grow(levels, n)
        if levels[i + 1].interval.contains(x):
            i, returns = i + 1, 0
            continue
        returns += 1
        if returns > _returns_bound(lvl):
            raise RuntimeError("no entry into level %d within %d returns from %s"
                               % (i + 2, _returns_bound(lvl), start.exact_str()))
        if parts and parts[-1][0] is w:
            parts[-1][1] += 1
        else:
            parts.append([w, 1])
        length += w.length
        x = lvl.interval.from_local((y + lvl.beta).frac())
    return concat_all(power(w, k) for w, k in parts)


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
    Each point keeps its ``Frame.key`` beside its pair (P, Q); a
    comparison calls ``_surd_sign`` only when the keys fall within the
    walk's bound on |Q| of each other.
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
    # alpha is in (0, 1), so a step wraps at most once; when alpha < 1/2
    # a point left of 1/2 cannot wrap at all
    short = sign(Ph - Pa, -Qa, d) > 0
    left = X < h_lo or (X <= h_hi and sign(P - Ph, Q, d) < 0)
    word = []
    for _ in range(budget):
        word.append(1 if left else -1)
        P += Pa
        Q += Qa
        X += Xa
        if not (short and left) and (
                X > w_hi or (X >= w_lo and sign(P - R, Q, d) >= 0)):
            P -= R
            X -= Xw
        # the interval is symmetric about 1/2, so the side of 1/2 the
        # point is on tells which endpoint can exclude it
        left = X < h_lo or (X <= h_hi and sign(P - Ph, Q, d) < 0)
        if left:
            back = X > l_hi or (X >= l_lo and sign(P - Pl, Q - Ql, d) >= 0)
        else:
            back = X < r_lo or (X <= r_hi and sign(P - Pr, Q - Qr, d) < 0)
        if back:
            return ReturnRecord(time=len(word), word=tuple(word), landing=frame.surd(P, Q))
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

