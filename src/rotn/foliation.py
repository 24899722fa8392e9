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
1 - alpha is a threshold embedded once.  Its sides, and those of 1/2,
are read off each point's ``Frame.key`` outside a band around the
threshold, and by ``_surd_sign`` inside it.  An exact trace keeps of
each entry only what it reports, its float shadow and its level, 16 B
a visit; the shadow is written with ``exactreal._surd_float``, the
formula ``float()`` of a ``SurdReal`` uses, so it is float() of the
orbit formula's exact point, bit for bit.

The non-dense leaf family, ``example_alpha`` and ``example_m_formulas``,
lives in ``rotn.example``, which needs no numpy; it is re-exported here,
where callers have always found it.
"""

from __future__ import annotations

import numpy as np

from .example import (ExampleReport, FormulaCheck, example_alpha, example_m_formulas,
                      example_point)
from .exactreal import HALF, Frame, Record, SurdReal, _surd_float, _surd_sign
from .scan import orbit_scan

__all__ = [
    "LeafTrace",
    "trace_ray",
    "trace_leaf_through",
    "example_alpha",
    "example_point",
    "example_m_formulas",
    "FormulaCheck",
    "ExampleReport",
]


def _turn_map(frame: Frame, alpha: SurdReal, band: int):
    """b on the lattice of ``frame``, which must hold alpha.

    b(x) = 1 - alpha - x left of the split 1 - alpha and 2 - alpha - x
    right of it; for x in [0, 1) both land in (0, 1), so b needs no
    reduction.  x = 1 - alpha runs into the corner of the rectangle
    (the singular connection) and is refused.  A point is (P, Q, X),
    X its ``Frame.key``; the side of the split is read off the keys
    unless they are within ``band``, a bound on |Q - Q_split| over the
    walk, of each other, and only then calls ``_surd_sign``.
    """
    R, d = frame.R, frame.d
    Pa, Qa = frame.embed(alpha)
    Ps, Qs = R - Pa, -Qa  # the split 1 - alpha
    Xs, XR = frame.key(Ps, Qs), frame.key(R, 0)
    lo, hi = Xs - band, Xs + band

    def turn(P: int, Q: int, X: int) -> tuple[int, int, int]:
        if X < lo:
            return Ps - P, Qs - Q, Xs - X
        if X <= hi:
            c = _surd_sign(P - Ps, Q - Qs, d)
            if c == 0:
                raise ValueError("leaf at x = 1 - alpha runs into the singular corner")
            if c < 0:
                return Ps - P, Qs - Q, Xs - X
        return Ps + R - P, Qs - Q, Xs + XR - X

    return turn


class LeafTrace(Record):
    """Rectangle entries of one leaf, in visit order.

    entry_x[k] and entry_level[k] describe the visit with index
    n = start_index + k (ray visits count from 1, leaf visits from 0;
    backward traces count 1, 2, ... steps into the past).  An exact
    trace's entry_x is float() of the exact entry point, bit for bit;
    certified traces bound the error of every entry_x by radius_bound.
    The ``leaf`` report reads its level summary off
    ``scan.sums_histogram(entry_level)``.
    """

    __slots__ = _fields = ("seed", "direction", "start_index", "entry_x",
                           "entry_level", "radius_bound")
    seed: str
    direction: int
    start_index: int
    entry_x: np.ndarray
    entry_level: np.ndarray
    radius_bound: float

    def __init__(self, seed: str, direction: int, start_index: int, entry_x: np.ndarray,
                 entry_level: np.ndarray, radius_bound: float = 0.0):
        self.seed = seed
        self.direction = direction
        self.start_index = start_index
        self.entry_x = entry_x
        self.entry_level = entry_level
        self.radius_bound = radius_bound

    @property
    def visits(self) -> int:
        return int(self.entry_level.size)


def _trace_exact(x0: SurdReal, level0: int, alpha: SurdReal, count: int,
                 direction: int, ray_convention: bool):
    """Step the turn map on one frame; never consult the orbit formula.

    Forward, from an upward segment at x: the next upward segment is at
    1 - b(x) with the level moved by f of the new coordinate (entry
    convention, used by rays) or of the old one (orbit convention, used
    by leaves).  Backward inverts that using that b is an involution.
    The walk holds the current point as its lattice pair (P, Q) and
    writes each visit as ``_surd_float(P, Q, R, d)``; no SurdReal is
    built.  Beside (P, Q) it keeps the point's ``Frame.key`` X: each
    step moves Q by alpha's Qa, so every tested pair has
    |Q - Qt| <= |Q0| + (count + 1)*|Qa|, and only a comparison whose keys
    fall within that band calls ``_surd_sign``.  Both per-visit arrays,
    (xs, lv), are allocated before the first step, so a count that cannot
    fit is refused at once.
    """
    frame = Frame(x0, alpha, HALF)
    R, d = frame.R, frame.d
    sign, to_float = _surd_sign, _surd_float
    Ph, _ = frame.embed(HALF)
    P, Q = frame.embed(x0)
    band = abs(Q) + (count + 1) * abs(frame.embed(alpha)[1])
    turn = _turn_map(frame, alpha, band)
    X, XR = frame.key(P, Q), frame.key(R, 0)
    h_lo, h_hi = frame.key(Ph, 0) - band, frame.key(Ph, 0) + band
    # forward rays and backward leaves move by f of the new coordinate
    f_of_new = (direction == 1) == ray_convention
    xs = np.empty(count, dtype=np.float64)
    lv = np.empty(count, dtype=np.int64)
    j = level0
    for k in range(count):
        xs[k] = to_float(P, Q, R, d)
        lv[k] = j
        if k + 1 == count:
            break
        if not f_of_new:
            f = 1 if X < h_lo or (X <= h_hi and sign(P - Ph, Q, d) < 0) else -1
        if direction == 1:
            dP, dQ, dX = turn(P, Q, X)
            P, Q, X = R - dP, -dQ, XR - dX  # 1 - b(x), already in (0, 1)
        else:
            # b(1 - x): 1 - x is in (0, 1], and at 1 b agrees with b(0)
            P, Q, X = turn(R - P, -Q, XR - X)
        if f_of_new:
            f = 1 if X < h_lo or (X <= h_hi and sign(P - Ph, Q, d) < 0) else -1
        j += direction * f
    return xs, lv


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
        xs, lv = _trace_exact(HALF, i, alpha, N, 1, ray_convention=True)
        return LeafTrace(seed, 1, 1, xs, lv)
    scan = orbit_scan(HALF, alpha, N, policy=policy)
    lv = scan.sums[1 : N + 1]
    lv += i + 1
    return LeafTrace(seed, 1, 1, scan.positions[:N], lv, radius_bound=scan.radius_bound)


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
        xs, lv = _trace_exact(x0, j0, alpha, N + 1, direction, ray_convention=False)
        return LeafTrace(seed, direction, 0, xs, lv)
    scan = orbit_scan(x0, alpha, N, direction=direction, policy=policy)
    scan.sums += j0
    return LeafTrace(seed, direction, 0, scan.positions, scan.sums,
                     radius_bound=scan.radius_bound)
