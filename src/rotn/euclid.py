"""The sign word of any orbit of a rotation, by Euclid's algorithm on a line.

The observable is +1 on [0, 1/2) and -1 on [1/2, 1), so the sign of
step i of the orbit of x0 is f(frac(x0 + i*step)) = (-1)^floor(2*x0 +
2*step*i): the parity of the lattice path under the line y = 2*x0 +
2*step*x.  Read along that path, the word of n steps is a product over
x = 0..n-1: U once for each integer the line crosses, then R.  U flips
the parity and R writes the letter of the current parity.

The product lives in a monoid of triples (w, v, flip): the letters
written from even parity, the same letters negated (written from odd
parity), and whether the parity flips.  So U = (empty, empty, 1), R =
(+1, -1, 0), and ``_mul`` and ``_pow`` build a product or a power from
O(1) nodes of the word DAG.  A power of a flipping triple holds (w v)^k,
a power of total 0, which ``words.level_times`` descends.

Euclid's algorithm computes the product over a line of slope a from
intercept b, with s saying whether a lattice point exactly on the line
counts (g below).  With a >= 1, fold U^floor(a) into R.  With a < 1,
swap the axes: the m U's of L steps become the R's of a product of m - 1
steps of slope 1/a, with U and R trading places and s flipping, between
a left and a right power of R.  The loop keeps the left and the right
products of all the levels so far.  The slope runs through the continued
fraction of 2*step, so there are O(log n) levels, each a few exact
``SurdReal`` floors.  This is the "universal Euclidean algorithm"; its
projection to sums is floor-sum reciprocity (Graham, Knuth and
Patashnik, Concrete Mathematics, 3.5), and its words are Lothaire's
mechanical words (Algebraic Combinatorics on Words, ch. 2).

It reads only step, x0 and exact floors, and never the tower, so it
checks the tower's words and serves every alpha and start alike.
"""

from __future__ import annotations

from functools import lru_cache
from math import floor

from .exactreal import SurdReal
from .words import EMPTY, MINUS, PLUS, SignWord, concat, power

__all__ = ["sign_word"]

_ID = (EMPTY, EMPTY, 0)


def _mul(x: tuple, y: tuple) -> tuple:
    """The product x y of two triples."""
    w1, v1, f1 = x
    w2, v2, f2 = y
    if f1:
        w2, v2 = v2, w2
    return concat(w1, w2), concat(v1, v2), f1 ^ f2


def _pow(x: tuple, k: int) -> tuple:
    """x^k, k >= 0: (w^k, v^k, 0) when x does not flip, else
    ((w v)^(k div 2), (v w)^(k div 2), 0), times x when k is odd."""
    w, v, flip = x
    if not flip:
        return (power(w, k), power(v, k), 0) if k else _ID
    half = k // 2
    even = (power(concat(w, v), half), power(concat(v, w), half), 0) if half else _ID
    return _mul(even, x) if k % 2 else even


def _g(s: int, z: SurdReal) -> int:
    """floor(z) when s is 0, else ceil(z) - 1: the integers below z,
    counting z itself only when s is 0."""
    return floor(z) if s == 0 else -floor(-z) - 1


def _level_budget(n: int) -> int:
    """The most levels a word of n letters takes.  With the slope a < 1
    after a fold, the next level's count is below a*L, and the one after
    below G(a)*a*L, where a*G(a) < 1/2 (G the Gauss map): so L more than
    halves every two levels."""
    return 2 * n.bit_length() + 4


@lru_cache(maxsize=32)
def sign_word(step: SurdReal, x0: SurdReal, n: int) -> SignWord:
    """The word of n letters f(frac(x0 + i*step)), i = 0..n-1.

    x0 is any point of step's field, in [0, 1) or not; the backward word
    of x0 is the word by -step.  A start from another field, or a word
    that needs more than ``_level_budget(n)`` levels, raises ValueError.
    The cache holds the words of at most 32 (step, x0, n), as
    ``renorm``'s holds 32 towers, so a word's memoized histograms serve
    the next run that asks for it.
    """
    if n < 0:
        raise ValueError("sign_word needs n >= 0, got %d" % (n,))
    if x0.q and x0.d != step.d:
        raise ValueError("start %s is not in the field of step %s"
                         % (x0.exact_str(), step.exact_str()))
    if n == 0:
        return EMPTY
    # the word is left * F(a, b, s, L, up, right) * right_part, where F is
    # the product over x = 1..L of up^(g(s, a*x + b) - g(s, a*(x-1) + b))
    # right; x = 0 writes the first letter, from the parity of floor(2*x0),
    # and 2*floor(step)*x is even
    a, b, s, L = 2 * step.frac(), 2 * x0, 0, n - 1
    up = (EMPTY, EMPTY, 1)
    left = right = (PLUS, MINUS, 0)
    right_part = _ID
    for _ in range(_level_budget(n)):
        b = b - _g(s, b)  # so g(s, b) = 0
        k = floor(a)
        a, right = a - k, _mul(_pow(up, k), right)
        m = _g(s, a * L + b)
        if m == 0:  # L = 0 among them
            left = _mul(left, _pow(right, L))
            break
        # the j-th up comes after g(1 - s, (j - b)/a) rights
        t, b2 = 1 - s, (1 - b) / a
        left = _mul(left, _mul(_pow(right, _g(t, b2)), up))
        right_part = _mul(_pow(right, L - _g(t, (m - b) / a)), right_part)
        a, b, s, L, up, right = 1 / a, b2, t, m - 1, right, up
    else:
        raise ValueError("a word of %d letters needs more than %d levels"
                         % (n, _level_budget(n)))
    w, v, _ = _mul(left, right_part)
    return v if floor(2 * x0) % 2 else w
