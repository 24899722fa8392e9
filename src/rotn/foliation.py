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
Its sides, and those of 1/2, are read off each point's ``Frame.key``,
the one number the loop steps, outside a band around the threshold; the
point's lattice pair is formed only inside it, for ``_surd_sign``.  The
loop records each turn's side and each f, one byte each; the levels are
their running sums, and the lattice points the running sums of the
walk's own moves, formed a chunk of about ``_CHUNK`` visits at a time.
An exact trace keeps of each entry only what it reports, its float
shadow and its level, 16 B a visit, beside the chunk it is on; it
writes each chunk's shadows with one ``exactreal._surd_floats`` call,
the proven batch form of ``_surd_float``, the formula ``float()`` of a
``SurdReal`` uses, so each is float() of the orbit formula's exact
point, bit for bit.

The non-dense leaf family, ``example_alpha`` and ``example_m_formulas``,
lives in ``rotn.example``, which needs no numpy; it is re-exported here,
where callers have always found it.
"""

from __future__ import annotations

import numpy as np

from .example import (ExampleReport, FormulaCheck, example_alpha, example_m_formulas,
                      example_point)
from .exactreal import HALF, Frame, Record, SurdReal, _surd_floats, _surd_sign
from .scan import _lattice, orbit_scan

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
    A ``leaf`` run with --out reads its level summary off
    ``scan.sums_histogram(entry_level)``; without, off the orbit's sums.
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


# visits a chunk: the trace steps a chunk's keys, recording its turns,
# then writes the chunk's levels, lattice points and floats with a few
# numpy passes and one ``_surd_floats`` call, whose per-call dispatch
# cost about as much as its points at 256.  A 10^5-visit trace peaked at
# 16.71-16.85 B a visit here, 16.83-16.95 at 576, 16.88-17.02 at 640 and
# 17.38-17.50 at 1024 (tracemalloc), against the 17 B of its test; 512
# is the largest power of two that keeps a margin
_CHUNK = 512


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
    T = alpha, where 1 - x meets the split; the move below T is the one
    above it plus 1.
    The loop steps only the current point's ``Frame.key`` X, and records
    two bytes a step: whether the point turned below T, and whether the
    point f is read at lies below 1/2.  Each move changes Q by alpha's
    Qa, so every tested pair has |Q - Qt| <= |Q0| + (count + 1)*|Qa|, and
    only a comparison whose keys fall within that band forms the point's
    lattice pair (P, Q), from the chunk's first pair and its turns below
    T so far, and calls ``_surd_sign``.
    After about ``_CHUNK`` visits the chunk's levels are the cumsum of
    its f bytes, its lattice points ``scan._lattice`` of the cumsum of
    its turn bytes, the integer form the key walk uses, and its floats
    one ``_surd_floats(P, Q, R, d)`` call on those arrays, so each is
    ``_surd_float`` of its pair; no SurdReal is built.  The turns come
    from stepping b alone: only the running totals of the walk's own
    moves are summed.  Both per-visit arrays, (xs, lv), are allocated
    before the first step, so a count that cannot fit is refused at once.
    """
    frame = Frame(x0, alpha, HALF)
    R, d = frame.R, frame.d
    sign = _surd_sign
    Ph, _ = frame.embed(HALF)
    Pa, Qa = frame.embed(alpha)
    Ps, Qs = R - Pa, -Qa  # the split 1 - alpha
    Pc, Qc = frame.embed(x0)
    band = abs(Qc) + (count + 1) * abs(Qa)
    X, XR, Xs = frame.key(Pc, Qc), frame.key(R, 0), frame.key(Ps, Qs)
    forward = direction == 1
    # the move (dP, dX) above T, and dQ; below T, P moves by R more
    if forward:  # x + 1 - c: below T, x is left of the split
        PT, QT, XT = Ps, Qs, Xs
        dP, dX, dQ = -Ps, -Xs, -Qs
    else:  # x + c - 1: below T, 1 - x is right of the split
        PT, QT, XT = Pa, Qa, XR - Xs
        dP, dX, dQ = Ps - R, Xs - XR, Qs
    dX0 = dX + XR
    t_lo, t_hi = XT - band, XT + band
    h_lo, h_hi = frame.key(Ph, 0) - band, frame.key(Ph, 0) + band
    xs = np.empty(count, dtype=np.float64)
    lv = np.empty(count, dtype=np.int64)
    chunks = max(1, (count + _CHUNK // 2) // _CHUNK)
    size = -(-count // chunks)
    # step k of a chunk: below[k] = 1 if it turned below T, half[k] = 1
    # if its f is +1
    below, half = bytearray(size), bytearray(size)
    ks, W = np.arange(size), np.empty(size, dtype=np.int64)

    def offset(k: int, Pt: int, Qt: int):
        """The chunk's point k minus (Pt, Qt), as a lattice pair."""
        return Pc + k * dP + below.count(1, 0, k) * R - Pt, Qc + k * dQ - Qt

    j = level0
    for i in range(chunks):
        k0, k1 = count * i // chunks, count * (i + 1) // chunks
        m = k1 - k0
        n = m - (k1 == count)  # the last visit takes no turn
        for k in range(n):
            if forward:
                half[k] = X < h_lo or (X <= h_hi and sign(*offset(k, Ph, 0), d) < 0)
            if X < t_lo or (X <= t_hi and _below(*offset(k, PT, QT), d)):
                below[k] = 1
                X += dX0
            else:
                below[k] = 0
                X += dX
            if not forward:
                half[k] = X < h_lo or (X <= h_hi and sign(*offset(k + 1, Ph, 0), d) < 0)
        # step k moves the level by direction*f: with c the count of half
        # bytes in steps 0..k, visit k0 + k + 1 is at j + direction*(2c - k - 1)
        lv[k0] = j
        up = np.cumsum(np.frombuffer(half, np.uint8, m - 1), dtype=np.int64,
                       out=lv[k0 + 1:k1])
        up *= 2
        up -= ks[1:m]
        if not forward:
            np.negative(up, out=up)
        up += j
        # point k0 + k is the chunk's first moved k times by (dP, dQ), and
        # by R more at each turn below T: _lattice's form, with W the
        # negated count of those turns
        W[0] = 0
        np.cumsum(np.frombuffer(below, np.uint8, m - 1), dtype=np.int64, out=W[1:m])
        np.negative(W[:m], out=W[:m])
        Pk, Qk = _lattice(ks[:m], W[:m], Pc, dP, Qc, dQ, R)
        xs[k0:k1] = _surd_floats(Pk, Qk, R, d)
        j += direction * (2 * half.count(1, 0, n) - n)
        Pc += n * dP + below.count(1, 0, n) * R
        Qc += n * dQ
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
