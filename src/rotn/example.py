"""The non-dense leaf family: rotation numbers whose orbit of x stays below 0.

``example_m_formulas`` checks the word-combinatorics package deriving
the non-dense leaf family: alpha = [0;2m+1,(2m+2)], x = (1+alpha)/2,
whose forward sign word is the infinite product of blocks

    (F-^(2j-1))^(m+1) (F+^(2j-1))^m (F-^(2j))^m      j = 1, 2, ...

with every block-boundary prefix maximum equal to -1, plus recursions
and closed forms for the prefix maxima of the return words.  All of it
is exact arithmetic on the tower and its words; nothing here needs
numpy.
"""

from __future__ import annotations

from .exactreal import ONE, CFNumber, FrozenRecord, SurdReal
from .renorm import tower
from .words import EMPTY, SignWord, concat_all, power

__all__ = [
    "example_alpha",
    "example_point",
    "example_m_formulas",
    "FormulaCheck",
    "ExampleReport",
]


def example_alpha(m: int) -> CFNumber:
    """The family [0; 2m+1, (2m+2)], admissible for every m >= 2."""
    if m < 2:
        raise ValueError("the example family needs m >= 2, got %d" % (m,))
    return CFNumber((2 * m + 1,), (2 * m + 2,))


def example_point(alpha: CFNumber) -> SurdReal:
    """The distinguished symmetric point x = (1 + alpha)/2."""
    return (ONE + alpha.value) / 2


class FormulaCheck(FrozenRecord):
    """One recursion or closed form, checked at one level of the tower."""

    __slots__ = _fields = ("name", "level", "got", "expected")
    name: str
    level: int
    got: int
    expected: int

    def __init__(self, name: str, level: int, got: int, expected: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "got", got)
        object.__setattr__(self, "expected", expected)

    @property
    def ok(self) -> bool:
        return self.got == self.expected


class ExampleReport(FrozenRecord):
    """The formula checks and the witness word of one family member m."""

    __slots__ = _fields = ("alpha", "x", "rows", "witness", "block_maxima")
    alpha: CFNumber
    x: SurdReal
    rows: list
    witness: SignWord
    block_maxima: list

    def __init__(self, alpha: CFNumber, x: SurdReal, rows: list, witness: SignWord,
                 block_maxima: list):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "block_maxima", block_maxima)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows) and all(
            v == -1 for v in self.block_maxima
        )


def example_m_formulas(m: int, k_max: int, *, strict: bool = True) -> ExampleReport:
    """Verify the prefix-maximum bookkeeping of the example family.

    Checks, for k = 1..k_max, the recursions

        M+(2k) = M+(2k-1)   M-(2k) = M-(2k-1)   M0(2k) = M+(2k-1)
        M+(2k+1) = M0(2k) + m + 1
        M-(2k+1) = M0(2k) + m - 1
        M0(2k+1) = M0(2k) + m

    and the closed forms M+(2k-1) = (m+1)k - m (k >= 2) etc., against
    the word stats of the actual tower; then builds the sign word of
    x = (1+alpha)/2 block by block and checks the running prefix
    maximum is exactly -1 at every block boundary.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1, got %r" % (k_max,))
    alpha = example_alpha(m)
    levels = tower(alpha, 2 * k_max + 1)

    def Mp(i):
        return levels[i - 1].f_plus.max_prefix

    def Mm(i):
        return levels[i - 1].f_minus.max_prefix

    def M0(i):
        return levels[i - 1].f_zero.max_prefix

    rows = []
    for k in range(1, k_max + 1):
        e, o = 2 * k, 2 * k - 1
        rows.append(FormulaCheck("M+(2k)=M+(2k-1)", e, Mp(e), Mp(o)))
        rows.append(FormulaCheck("M-(2k)=M-(2k-1)", e, Mm(e), Mm(o)))
        rows.append(FormulaCheck("M0(2k)=M+(2k-1)", e, M0(e), Mp(o)))
        rows.append(FormulaCheck("M+(2k+1)=M0(2k)+m+1", e + 1, Mp(e + 1), M0(e) + m + 1))
        rows.append(FormulaCheck("M-(2k+1)=M0(2k)+m-1", e + 1, Mm(e + 1), M0(e) + m - 1))
        rows.append(FormulaCheck("M0(2k+1)=M0(2k)+m", e + 1, M0(e + 1), M0(e) + m))
        base = (m + 1) * k - m
        rows.append(FormulaCheck("M+(2k)=(m+1)k-m", e, Mp(e), base))
        rows.append(FormulaCheck("M-(2k)=(m+1)k-m-2", e, Mm(e), base - 2))
        rows.append(FormulaCheck("M0(2k)=(m+1)k-m", e, M0(e), base))
        if k >= 2:
            rows.append(FormulaCheck("M+(2k-1)=(m+1)k-m", o, Mp(o), base))
            rows.append(FormulaCheck("M-(2k-1)=(m+1)k-m-2", o, Mm(o), base - 2))
            rows.append(FormulaCheck("M0(2k-1)=(m+1)k-m-1", o, M0(o), base - 1))

    # One block takes the orbit from the local copy of x in I(2j-1) to the
    # local copy of x in I(2j+1).  At the odd level the orbit makes m+1
    # returns landing left of 1/2 and the last of them crosses the wrap
    # region [1-beta, 1), so its return word picks up the f_zero factor;
    # at level 1 f_zero is empty and the factor disappears.
    # Each block's factors fold onto the running witness, the same left
    # fold concat_all makes of all the factors at once.
    witness = EMPTY
    block_maxima = []
    for j in range(1, k_max + 1):
        odd, even = levels[2 * j - 2], levels[2 * j - 1]
        witness = concat_all((witness, power(odd.f_minus, m + 1), odd.f_zero,
                              power(odd.f_plus, m), power(even.f_minus, m)))
        block_maxima.append(witness.max_prefix)

    report = ExampleReport(alpha, example_point(alpha), rows, witness, block_maxima)
    if strict and not report.ok:
        bad = [r for r in report.rows if not r.ok]
        if bad:
            r = bad[0]
            raise AssertionError(
                "m=%d: %s fails at level %d (got %d, expected %d)"
                % (m, r.name, r.level, r.got, r.expected)
            )
        raise AssertionError(
            "m=%d: block prefix maxima %r are not all -1" % (m, block_maxima)
        )
    return report
