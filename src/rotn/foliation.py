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
the sign cocycle.

- ``trace_leaf_through(x0, j0, ...)``: the leaf through an interior
  point, labeled by the skew-product orbit: visit n (signed) sits at
  t^n(x0) with level j0 + S_n(x0).

- ``trace_ray(i, ...)``: the separatrix leaving the singular point
  (1/2, 0, i) upward.  Its n-th rectangle entry, n >= 1, is at
  horizontal coordinate t^(n-1)(1/2) and level i + 1 + S_n(1/2), so it
  is read off the leaf through (1/2, i + 1): entry n pairs that leaf's
  coordinate at visit n - 1 with its level at visit n.

The tracer steps the turn map; the closed formulas above are what the
tests compare it against, so it never consults them.  The
"certified" policy rides the orbit scan arrays; "exact" steps b, for
alpha taken mod 1, on an ``exactreal.Frame``, where b is closed: with
x, alpha and 1/2 on the lattice, b(x) and 1 - b(x) are integer
differences, and the split 1 - alpha is a threshold embedded once.
Its sides, and those of 1/2, are read off each point's ``Frame.key``
outside a band around the threshold, and by ``_surd_sign`` inside it.
An exact trace keeps of each entry only what it reports, its float
shadow and its level, 16 B a visit, beside the lattice points of the
chunk of about ``_CHUNK`` visits it is on; it writes each chunk's
shadows with one ``exactreal._surd_floats`` call, the proven batch form
of ``_surd_float``, the formula ``float()`` of a ``SurdReal`` uses, so
each is float() of the orbit formula's exact point, bit for bit.

The non-dense leaf family, ``example_alpha`` and ``example_m_formulas``,
lives in ``rotn.example``, which needs no numpy; it is re-exported here,
where callers have always found it.
"""

from __future__ import annotations

import numpy as np

from .example import (ExampleReport, FormulaCheck, example_alpha, example_m_formulas,
                      example_point)
from .exactreal import HALF, Frame, Record, SurdReal, _surd_floats, _surd_sign
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
        self._store(seed, direction, start_index, entry_x, entry_level, radius_bound)

    @property
    def visits(self) -> int:
        return int(self.entry_level.size)


# visits a chunk: the trace collects each chunk's lattice points and
# writes their floats with one ``_surd_floats`` call
_CHUNK = 256


def _trace_exact(x0: SurdReal, level0: int, alpha: SurdReal, count: int,
                 direction: int):
    """Step the turn map on one frame, for alpha in (0, 1); never consult
    the orbit formula.

    The turn map is b(x) = c - x, with c = 1 - alpha left of the split
    1 - alpha and c = 2 - alpha right of it; for x in [0, 1) both land in
    (0, 1), so b needs no reduction, and x = 1 - alpha runs into the
    corner of the rectangle (the singular connection) and is refused.
    Forward, from an upward segment at x, the next upward segment is at
    1 - b(x) = x + 1 - c, with the level moved by f of the old
    coordinate.  Backward inverts that using that b is an involution:
    the next point is b(1 - x) = x + c - 1, c read off the side of 1 - x
    (at 1 - x = 1, b agrees with b(0)), and the level moves by -f of the
    new coordinate.  So a step adds one of two lattice moves, chosen by
    the side of one threshold T: forward T = 1 - alpha, backward
    T = alpha, where 1 - x meets the split.
    The walk holds the current point as its lattice pair (P, Q), and
    beside it its ``Frame.key`` X: each step moves Q by alpha's Qa, so
    every tested pair has |Q - Qt| <= |Q0| + (count + 1)*|Qa|, and only
    a comparison whose keys fall within that band calls ``_surd_sign``.
    It collects the pairs of about ``_CHUNK`` visits at a time and
    writes their floats with one ``_surd_floats(P, Q, R, d)`` call, so
    each is ``_surd_float`` of its pair; no SurdReal is built.  Both
    per-visit arrays, (xs, lv), are allocated before the first step, so
    a count that cannot fit is refused at once.
    """
    frame = Frame(x0, alpha, HALF)
    R, d = frame.R, frame.d
    sign = _surd_sign
    Ph, _ = frame.embed(HALF)
    Pa, Qa = frame.embed(alpha)
    Ps, Qs = R - Pa, -Qa  # the split 1 - alpha
    P, Q = frame.embed(x0)
    band = abs(Q) + (count + 1) * abs(Qa)
    X, XR, Xs = frame.key(P, Q), frame.key(R, 0), frame.key(Ps, Qs)
    forward = direction == 1
    # the moves (dP0, dX0) below T and (dP1, dX1) above it, and dQ
    if forward:  # x + 1 - c: below T, x is left of the split
        PT, QT, XT = Ps, Qs, Xs
        dP0, dX0, dP1, dX1, dQ = R - Ps, XR - Xs, -Ps, -Xs, -Qs
    else:  # x + c - 1: below T, 1 - x is right of the split
        PT, QT, XT = Pa, Qa, XR - Xs
        dP0, dX0, dP1, dX1, dQ = Ps, Xs, Ps - R, Xs - XR, Qs
    t_lo, t_hi = XT - band, XT + band
    h_lo, h_hi = frame.key(Ph, 0) - band, frame.key(Ph, 0) + band
    xs = np.empty(count, dtype=np.float64)
    lv = np.empty(count, dtype=np.int64)
    j = level0
    chunks = max(1, (count + _CHUNK // 2) // _CHUNK)
    for i in range(chunks):
        k0, k1 = count * i // chunks, count * (i + 1) // chunks
        last = k1 == count  # the last visit takes no turn
        Pc, Qc = [], []
        put_P, put_Q = Pc.append, Qc.append
        for k in range(k0, k1 - last):
            put_P(P)
            put_Q(Q)
            lv[k] = j
            if forward:
                f = 1 if X < h_lo or (X <= h_hi and sign(P - Ph, Q, d) < 0) else -1
            if X < t_lo or (X <= t_hi and _below(P - PT, Q - QT, d)):
                P += dP0
                X += dX0
            else:
                P += dP1
                X += dX1
            Q += dQ
            if not forward:
                f = -1 if X < h_lo or (X <= h_hi and sign(P - Ph, Q, d) < 0) else 1
            j += f
        if last:
            put_P(P)
            put_Q(Q)
            lv[count - 1] = j
        xs[k0:k1] = _surd_floats(Pc, Qc, R, d)
    return xs, lv


def _below(dP: int, dQ: int, d: int) -> bool:
    """Whether x < T, given x - T as (dP, dQ); x = T is the corner, refused."""
    c = _surd_sign(dP, dQ, d)
    if c == 0:
        raise ValueError("leaf at x = 1 - alpha runs into the singular corner")
    return c < 0


def trace_ray(i: int, alpha: SurdReal, N: int, *,
              policy: str = "certified") -> LeafTrace:
    """Entries 1..N of the upward separatrix from the singularity (1/2, 0, i).

    Entry n is at t^(n-1)(1/2) with level i + 1 + S_n(1/2); the first
    rectangle met is R_i itself, entered at 1/2.  Both are read off
    visits 0..N of the leaf through (1/2, i + 1).
    """
    if N < 1:
        raise ValueError("need N >= 1 visits, got %r" % (N,))
    leaf = trace_leaf_through(HALF, i + 1, alpha, N, policy=policy)
    return LeafTrace("ray %d" % (i,), 1, 1, leaf.entry_x[:N], leaf.entry_level[1:],
                     radius_bound=leaf.radius_bound)


def _refuse_corner(x0: SurdReal, alpha: SurdReal, N: int, direction: int) -> None:
    """Refuse, as the exact tracer does, a leaf whose turns at visits
    0..N - 1 meet the corner.

    Forward, visit k turns at x = 1 - alpha; backward, at 1 - x = 1 - alpha.
    Either way x0 + direction*(k + 1)*alpha is an integer, and alpha being
    irrational, only the m = k + 1 that cancels x0's sqrt(d) part can make
    it one: an exact solve, where the certified scan never sees the corner.
    """
    num, den = -direction * x0.q * alpha.r, x0.r * alpha.q
    if x0.q and x0.d == alpha.d and num % den == 0 and 1 <= num // den <= N \
            and (x0 + alpha * (direction * (num // den))).frac() == 0:
        raise ValueError("leaf at x = 1 - alpha runs into the singular corner")


def trace_leaf_through(
    x0: SurdReal, j0: int, alpha: SurdReal, N: int, *, direction: int = 1,
    policy: str = "certified",
) -> LeafTrace:
    """Visits 0..N of the leaf through (x0 mod 1, j0), labeled by the skew orbit.

    Visit n (n signed via ``direction``) is at t^n(x0) with level
    j0 + S_n(x0); levels never skip, moving by f along the leaf.  A leaf
    that runs into the singular corner within its N turns is refused
    under either policy.
    """
    if N < 0:
        raise ValueError("need N >= 0, got %r" % (N,))
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    x0 = x0.frac()  # the seed names the point on the circle
    seed = "leaf through (%s, %d)" % (x0.exact_str(), j0)
    if policy == "exact":
        # the turn map is written for alpha in (0, 1); alpha mod 1 is the
        # same rotation
        xs, lv = _trace_exact(x0, j0, alpha.frac(), N + 1, direction)
        return LeafTrace(seed, direction, 0, xs, lv)
    _refuse_corner(x0, alpha, N, direction)
    scan = orbit_scan(x0, alpha, N, direction=direction, policy=policy)
    scan.sums += j0
    return LeafTrace(seed, direction, 0, scan.positions, scan.sums,
                     radius_bound=scan.radius_bound)
