"""Leaves of the vertical foliation, traced rectangle to rectangle.

The phase space is a bi-infinite stack of unit rectangles R_j glued so
that a vertical leaf climbing R_j turns at the top, comes back down at
the mirrored coordinate, and crosses into R_(j') at the bottom.  The
turn map is

    b(x) = 1 - alpha - x   for x < 1 - alpha
    b(x) = 2 - alpha - x   for x > 1 - alpha

(x = 1 - alpha runs into the corner and is refused), which is exactly
b(x) = 1 - t(x) for the rotation t, and b is an involution.  A leaf
entering R_j upward at x therefore next enters R_(j + f(t(x))) upward
at t(x): horizontally it is the rotation orbit, vertically it moves by
the sign cocycle.  Two bookkeepings are provided:

- ``trace_ray(i, ...)``: the separatrix leaving the singular point
  (1/2, 0, i) upward.  Its n-th rectangle entry is at horizontal
  coordinate t^(n-1)(1/2) and level i + 1 + S_n(1/2), n >= 1 (entry
  levels absorb f of the entry coordinate).

- ``trace_leaf_through(x0, j0, ...)``: the leaf through an interior
  point, labeled by the skew-product orbit: visit n (signed) sits at
  t^n(x0) with level j0 + S_n(x0).

Both tracers step the turn map; the closed formulas above are what the
tests compare them against, so the tracers never consult them.  The
"certified" policy rides the orbit scan arrays; "exact" steps b on an
``exactreal.Frame``, where b is closed: with x, alpha and 1/2 on the
lattice, b(x) and 1 - b(x) are integer differences, and the split
1 - alpha is a threshold embedded once.

``example_m_formulas`` checks the word-combinatorics package deriving
the non-dense leaf family: alpha = [0;2m+1,(2m+2)], x = (1+alpha)/2,
whose forward sign word is the infinite product of blocks

    (F-^(2j-1))^(m+1) (F+^(2j-1))^m (F-^(2j))^m      j = 1, 2, ...

with every block-boundary prefix maximum equal to -1, plus recursions
and closed forms for the prefix maxima of the return words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exactreal import HALF, ONE, CFNumber, Frame, SurdReal
from .renorm import tower
from .scan import orbit_scan
from .words import SignWord, concat_all, power

__all__ = [
    "LeafTrace",
    "leaf_turn",
    "trace_ray",
    "trace_leaf_through",
    "example_alpha",
    "example_point",
    "example_m_formulas",
    "FormulaCheck",
    "ExampleReport",
]


def _turn_map(frame: Frame, alpha: SurdReal):
    """b on the lattice of ``frame``, which must hold alpha.

    b(x) = 1 - alpha - x left of the split 1 - alpha and 2 - alpha - x
    right of it; for x in [0, 1) both land in (0, 1), so b needs no
    reduction.  x = 1 - alpha runs into the corner of the rectangle
    (the singular connection) and is refused.
    """
    R, sign = frame.R, frame.sign
    Pa, Qa = frame.embed(alpha)
    Ps, Qs = R - Pa, -Qa  # the split 1 - alpha

    def turn(P: int, Q: int) -> tuple[int, int]:
        c = sign(P - Ps, Q - Qs)
        if c == 0:
            raise ValueError("leaf at x = 1 - alpha runs into the singular corner")
        if c < 0:
            return Ps - P, Qs - Q
        return Ps + R - P, Qs - Q

    return turn


def leaf_turn(x: SurdReal, alpha: SurdReal) -> SurdReal:
    """Where the leaf comes back down after going up at x mod 1.

    Refuses x = 1 - alpha: that segment runs into the corner of the
    rectangle (the singular connection), b would wrap to 1.
    """
    x = x.frac()
    frame = Frame(x, alpha)
    turn = _turn_map(frame, alpha)
    return frame.surd(*turn(*frame.embed(x)))


@dataclass
class LeafTrace:
    """Rectangle entries of one leaf, in visit order.

    entry_x[k] and entry_level[k] describe the visit with index
    n = start_index + k (ray visits count from 1, leaf visits from 0;
    backward traces count 1, 2, ... steps into the past).  Exact traces
    also keep the entry coordinates as surds; certified traces bound
    the error of every entry_x by radius_bound.
    """

    seed: str
    direction: int
    start_index: int
    entry_x: np.ndarray
    entry_level: np.ndarray
    policy: str
    exact_x: Optional[list] = None
    radius_bound: float = 0.0

    @property
    def visits(self) -> int:
        return int(self.entry_level.size)

    def levels_visited(self) -> list[int]:
        """The distinct entry levels, ascending.

        Levels move by one per visit, so they span at most ``visits``
        values and a bincount over that span replaces a sort.
        """
        lv = self.entry_level
        lo = int(lv.min())
        return (np.flatnonzero(np.bincount(lv - lo)) + lo).tolist()

    def summary(self) -> dict:
        levels = self.levels_visited()
        return {
            "seed": self.seed,
            "N": self.visits - 1 + self.start_index,
            "min_level": levels[0],
            "max_level": levels[-1],
            "levels_visited": levels,
        }


def _trace_exact(x0: SurdReal, level0: int, alpha: SurdReal, count: int,
                 direction: int, ray_convention: bool):
    """Step the turn map on one frame; never consult the orbit formula.

    Forward, from an upward segment at x: the next upward segment is at
    1 - b(x) with the level moved by f of the new coordinate (entry
    convention, used by rays) or of the old one (orbit convention, used
    by leaves).  Backward inverts that using that b is an involution.
    Every visit is also kept as a canonical surd.
    """
    frame = Frame(x0, alpha, HALF)
    R, sign = frame.R, frame.sign
    turn = _turn_map(frame, alpha)
    Ph, _ = frame.embed(HALF)
    P, Q = frame.embed(x0)
    # forward rays and backward leaves move by f of the new coordinate
    f_of_new = (direction == 1) == ray_convention
    xs = np.empty(count, dtype=np.float64)
    lv = np.empty(count, dtype=np.int64)
    exact = []
    j = level0
    for k in range(count):
        x = frame.surd(P, Q)
        xs[k] = float(x)
        lv[k] = j
        exact.append(x)
        if k + 1 == count:
            break
        if not f_of_new:
            f = 1 if sign(P - Ph, Q) < 0 else -1
        if direction == 1:
            dP, dQ = turn(P, Q)
            P, Q = R - dP, -dQ  # 1 - b(x), already in (0, 1)
        else:
            # b(1 - x): 1 - x is in (0, 1], and at 1 b agrees with b(0)
            P, Q = turn(R - P, -Q)
        if f_of_new:
            f = 1 if sign(P - Ph, Q) < 0 else -1
        j += direction * f
    return xs, lv, exact


def trace_ray(i: int, alpha: SurdReal, N: int, *,
              policy: str = "certified") -> LeafTrace:
    """Entries 1..N of the upward separatrix from the singularity (1/2, 0, i).

    Entry n is at t^(n-1)(1/2) with level i + 1 + S_n(1/2); the first
    rectangle met is R_i itself, entered at 1/2.
    """
    if N < 1:
        raise ValueError("need N >= 1 visits, got %r" % (N,))
    seed = "ray %d" % (i,)
    if policy == "exact":
        xs, lv, exact = _trace_exact(HALF, i, alpha, N, 1, ray_convention=True)
        return LeafTrace(seed, 1, 1, xs, lv, policy, exact)
    scan = orbit_scan(HALF, alpha, N, policy=policy)
    lv = scan.sums[1 : N + 1]
    lv += i + 1
    return LeafTrace(seed, 1, 1, scan.positions[:N], lv, policy,
                     radius_bound=scan.radius_bound)


def trace_leaf_through(
    x0: SurdReal, j0: int, alpha: SurdReal, N: int, *, direction: int = 1,
    policy: str = "certified",
) -> LeafTrace:
    """Visits 0..N of the leaf through (x0 mod 1, j0), labeled by the skew orbit.

    Visit n (n signed via ``direction``) is at t^n(x0) with level
    j0 + S_n(x0); levels never skip, moving by f along the leaf.
    """
    if N < 0:
        raise ValueError("need N >= 0, got %r" % (N,))
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    x0 = x0.frac()  # the seed names the point on the circle
    seed = "leaf through (%s, %d)" % (x0.exact_str(), j0)
    if policy == "exact":
        xs, lv, exact = _trace_exact(
            x0, j0, alpha, N + 1, direction, ray_convention=False
        )
        return LeafTrace(seed, direction, 0, xs, lv, policy, exact)
    scan = orbit_scan(x0, alpha, N, direction=direction, policy=policy)
    scan.sums += j0
    return LeafTrace(
        seed, direction, 0, scan.positions, scan.sums, policy,
        radius_bound=scan.radius_bound,
    )


# ---------------------------------------------------------------------------
# the non-dense-leaf example family


def example_alpha(m: int) -> CFNumber:
    """The family [0; 2m+1, (2m+2)], admissible for every m >= 2."""
    if m < 2:
        raise ValueError("the example family needs m >= 2, got %d" % (m,))
    return CFNumber((2 * m + 1,), (2 * m + 2,))


def example_point(alpha: CFNumber) -> SurdReal:
    """The distinguished symmetric point x = (1 + alpha)/2."""
    return (ONE + alpha.value) / 2


@dataclass(frozen=True)
class FormulaCheck:
    name: str
    level: int
    got: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.got == self.expected


@dataclass
class ExampleReport:
    m: int
    k_max: int
    alpha: CFNumber
    x: SurdReal
    rows: list
    witness: SignWord
    block_maxima: list

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
    witness = None
    block_maxima = []
    parts = []
    for j in range(1, k_max + 1):
        odd, even = levels[2 * j - 2], levels[2 * j - 1]
        parts.extend(
            [
                power(odd.f_minus, m + 1),
                odd.f_zero,
                power(odd.f_plus, m),
                power(even.f_minus, m),
            ]
        )
        witness = concat_all(parts)
        block_maxima.append(witness.max_prefix)

    report = ExampleReport(m, k_max, alpha, example_point(alpha), rows,
                           witness, block_maxima)
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
