"""Long orbit scans of the sign cocycle, certified or exact.

The object of interest is the orbit x, tx, t^2 x, ... of an irrational
rotation together with the signs f = +1 on [0, 1/2), -1 on [1/2, 1) and
their running (Birkhoff) sums.  Scans of 10^6..10^7 steps dominate the
package's runtime, so the inner loop runs in floating point with a
rigorous error radius, and only the rare steps whose certified interval
touches 0, 1/2 or 1 are recomputed exactly.  With the standard radii
that is a handful of escalations per 10^7 steps, and the resulting sign
sequence is exact, not approximate.

The float loop is one numpy kernel, ``scan_kernel``.  Positions are
evaluated by the direct formula frac(x0 + i*alpha), not incrementally,
so the error is linear in i with no compounding.  The kernel and the
running sums walk the orbit in chunks small enough to stay in a
per-core L2 cache, writing into the output arrays in place, so a
certified scan holds little beyond its output: 8 + 1 + 8 bytes per
step for positions, signs and sums.  A chunk's body, ``_float_chunk``,
is the one copy of the formula, the screen and the radius test:
``orbit_positions`` runs it, without signs, at chosen indices only, in
any order, for callers that know the signs already and need a few
positions.

The "exact" policy replaces the float loop with a walk on an
``exactreal.Frame``: orbit points are integer pairs (P, Q) over one
common denominator R, and the walk takes 2^12 of them at a time as
numpy arrays.  For each point it finds g = floor(2x) of the unwrapped
point x: a float guess that two exact bracket tests, g <= 2x and
2x < g + 1, confirm or move by one.  Those tests are the package's one
exact integer sign test in array form, and the float only picks which
integer they test, so every sign (the parity of g) and every wrap (by
g >> 1) is exact.  The arrays are int64 while the tests' squares stay
below 2^62, which for the README's alphas holds past 10^8 steps (for
[0;21,(30,28,26)], with d ~ 1.2*10^8, only to ~10^5), and Python ints
past that.  Positions are still reported as floats, (P + Q*sqrt(d))/R.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .exactreal import (HALF, Frame, Record, SurdReal, _surd_float, _surd_signs,
                        escalations)
from .words import _add_shifted

__all__ = ["OrbitScan", "orbit_scan", "orbit_positions", "sums_histogram", "backend_name",
           "kernel_for"]

logger = logging.getLogger(__name__)

# Scan chunk length: the kernel's buffers (18 bytes per index) and the
# chunk of positions and signs it writes (9 more) take 1.8 MB, so one
# chunk's whole pass stays inside a 2 MB per-core L2 cache.
_CHUNK = 1 << 16

# The exact walk's chunk length: its temporaries are a few dozen arrays
# of this many integers.  Bracket tests run on int64 while p and
# q*sqrt(d) stay below _INT64_ROOT, so that p*p and q*q*d stay below
# 2^62, and on Python ints past that.  A guess off by one settles in
# the second of _ROUNDS rounds.
_EXACT_CHUNK = 1 << 12
_INT64_ROOT = 1 << 31
# the IEEE position formula turns R, P and Q*sqrt(d) into floats; below
# this bound on them none overflows
_FLOAT_ROOM = 1 << 1023
_ROUNDS = 2


def scan_kernel(x0, alpha, n, base_radius, radius_slope):
    """Return (pos[n], signs[n], ambiguous indices) for i = 0..n-1.

    Positions are frac(x0 + i*alpha) in double precision, signs are
    decided against 1/2, and every index i whose certified interval
    touches 0, 1/2 or 1 is reported for exact escalation by the caller:
    with rad(i) = base_radius + i*radius_slope and d = |z - 1/2|,

        d <= rad(i)  or  z <= rad(i)  or  z >= 1 - rad(i).

    The scan runs ``_float_chunk`` on chunks of ``_CHUNK`` ascending
    indices through buffers allocated once per call, writing positions
    and signs in place; a chunk's largest index is its last.
    """
    pos = np.empty(n, dtype=np.float64)
    signs = np.empty(n, dtype=np.int8)
    idx = np.arange(min(n, _CHUNK), dtype=np.float64)  # lo + k, exact below 2^53
    scratch = _scratch(idx.size)
    amb_parts = []
    for lo in range(0, n, _CHUNK):
        m = min(_CHUNK, n - lo)
        amb_parts.append(lo + _float_chunk(
            idx[:m], lo + m - 1, x0, alpha, base_radius, radius_slope,
            pos[lo:lo + m], signs[lo:lo + m], scratch))
        idx += _CHUNK
    ambiguous = np.concatenate(amb_parts) if amb_parts else np.empty(0, dtype=np.int64)
    return pos, signs, ambiguous


def _scratch(size: int) -> tuple:
    """``_float_chunk``'s scratch buffers for chunks of up to size indices."""
    return np.empty(size), np.empty(size, dtype=bool), np.empty(size, dtype=bool)


def _float_chunk(i, top, x0, alpha, base_radius, radius_slope, z, s, scratch):
    """The float kernel on one chunk of float indices i, none above top.

    Writes z = frac(x0 + i*alpha) in place, and s = f(z) in place unless
    s is None, and returns the int64 offsets into i whose interval, of
    radius rad(i) = base_radius + i*radius_slope, touches 0, 1/2 or 1,
    by ``scan_kernel``'s test, using the buffers ``_scratch`` makes
    as scratch.  The test first screens the chunk against
    rmax = rad(top): it keeps i when d <= rmax + 2^-50 or
    d >= 1/2 - 2*rmax - 2^-50, and runs the per-index test on those
    candidates only.  The candidates are a superset of the flagged
    offsets, so the flagged set is the one the full test gives:

    - rad(i) <= rmax, because rounding is monotone, radius_slope >= 0
      and i <= top; so the first clause implies d <= rmax;
    - z <= rad(i) <= rmax < 1/4 makes d the rounding of 1/2 - z, at
      least the rounding of 1/2 - rmax, and so d >= 1/2 - 2*rmax - 2^-50;
    - z >= 1 - rad(i) > 1/2 makes d = z - 1/2 exactly (Sterbenz), and
      1 - rad(i) rounds by at most 2^-53, so d >= 1/2 - rmax - 2^-53.

    (When rmax >= 1/4 the screen keeps every index.)
    """
    d, b, b2 = (a[:i.size] for a in scratch)
    np.multiply(i, alpha, out=z)
    z += x0
    np.floor(z, out=d)
    z -= d
    # frac can round up to exactly 1.0 for z just under an integer
    np.greater_equal(z, 1.0, out=b)
    if b.any():
        z[b] = 0.0
    if s is not None:
        np.less(z, 0.5, out=b)
        np.multiply(b.view(np.int8), 2, out=s)
        s -= 1
    np.subtract(z, 0.5, out=d)
    np.abs(d, out=d)
    rmax = base_radius + top * radius_slope
    np.less_equal(d, rmax + 2.0**-50, out=b)
    np.greater_equal(d, 0.5 - 2.0 * rmax - 2.0**-50, out=b2)
    b |= b2
    cand = np.flatnonzero(b)
    if not cand.size:
        return cand
    zc = z[cand]
    rad = base_radius + i[cand] * radius_slope
    return cand[(np.abs(zc - 0.5) <= rad) | (zc <= rad) | (zc >= 1.0 - rad)]


def orbit_positions(x0: SurdReal, alpha: SurdReal, indices: np.ndarray):
    """Positions t^i(x0) at the given int64 indices i, as the scan gives them.

    Returns (positions, escalated, radius_bound).  The indices, in any
    order, run through the kernel's own ``_float_chunk``, without signs,
    ``_CHUNK`` at a time; since they need not ascend, a chunk's screen
    radius is that of its largest index.  An index i >= 0 gets the
    kernel's float frac(x0 + i*alpha), or the float of the exact point
    where the kernel's radius test flags i (those indices come back as
    ``escalated``), so each position is bit-equal to
    ``orbit_scan(x0, alpha, n).positions[i]`` for any n >= i.  An index
    below 0 is outside the radius model and gets the exact point.
    radius_bound is the certified radius at the largest index.
    """
    x0 = x0.frac()
    x0f, af, base, slope = _scan_radii(x0, alpha)
    pos = np.empty(indices.size, dtype=np.float64)
    scratch = _scratch(min(indices.size, _CHUNK))
    escalated = []
    for lo in range(0, indices.size, _CHUNK):
        idx = indices[lo:lo + _CHUNK]
        i = idx.astype(np.float64)
        z = pos[lo:lo + i.size]
        bad = _float_chunk(i, i.max(), x0f, af, base, slope, z, None, scratch)
        bad = bad[idx[bad] >= 0]
        escalated.append(idx[bad])
        for j in np.flatnonzero(idx < 0).tolist() + bad.tolist():
            z[j] = float((x0 + alpha * int(idx[j])).frac())
    escalated = np.concatenate(escalated) if escalated else np.empty(0, dtype=np.int64)
    if escalated.size:
        escalations.bump(int(escalated.size))
    top = int(indices.max()) if indices.size else 0
    return pos, escalated, base + max(top, 0) * slope


# rotnbench records backend_name() in its results and probes every
# kernel kernel_for() can load, skipping names that raise ImportError.


def backend_name() -> str:
    """The name of the float scan kernel."""
    return "python"


def kernel_for(name: str):
    """The float scan kernel called `name`; "python" is the only one.

    "cython", a compiled kernel this package no longer ships, raises
    ImportError like any kernel that cannot be loaded.
    """
    if name == "python":
        return scan_kernel
    if name == "cython":
        raise ImportError("rotn has no compiled scan kernel")
    raise ValueError("unknown backend %r" % (name,))


_POLICIES = ("certified", "exact")


class OrbitScan(Record):
    """Orbit points 0..n of x0 under rotation by direction*alpha.

    positions[i] approximates t^(direction*i)(x0) in [0, 1), within
    radius_bound of the exact point at every i: under "certified" the
    kernel's radius at the last index (an escalated position is float()
    of the exact point, and closer), under "exact" the rounding bound
    of the formula the integer walk writes positions with;
    signs[i] is f there, exact under every policy;
    sums[j] is the Birkhoff sum S_(direction*j)(x0), so sums[0] = 0,
    forward sums add signs[0..j-1], backward sums are -(signs[1..j]).
    """

    __slots__ = _fields = ("x0", "alpha", "direction", "positions", "signs", "sums",
                           "escalated", "radius_bound")
    x0: SurdReal
    alpha: SurdReal
    direction: int
    positions: np.ndarray
    signs: np.ndarray
    sums: np.ndarray
    escalated: np.ndarray
    radius_bound: float

    def __init__(self, x0: SurdReal, alpha: SurdReal, direction: int,
                 positions: np.ndarray, signs: np.ndarray, sums: np.ndarray,
                 escalated: np.ndarray, radius_bound: float):
        self.x0 = x0
        self.alpha = alpha
        self.direction = direction
        self.positions = positions
        self.signs = signs
        self.sums = sums
        self.escalated = escalated
        self.radius_bound = radius_bound


def _scan_radii(x0: SurdReal, alpha: SurdReal):
    """Float seeds and the rigorous radius model rad(i) = base + i*slope
    that ``scan_kernel`` tests each position against.

    Covers: the certified radii of x0 and alpha, the rounding of i*af,
    of the sum, and the one possible rounding in the wrap for backward
    scans.  Each rounding term is 2^-51, four units of roundoff, so the
    bound has headroom.
    """
    c0 = x0.certified()
    ca = alpha.certified()
    base = c0.radius + 2.0**-51
    slope = ca.radius + abs(ca.value) * 2.0**-51
    return c0.value, ca.value, base, slope


def orbit_scan(
    x0: SurdReal,
    alpha: SurdReal,
    n_steps: int,
    *,
    direction: int = 1,
    policy: str = "certified",
) -> OrbitScan:
    """Scan the orbit for n_steps steps (n_steps + 1 points including x0)."""
    if policy not in _POLICIES:
        raise ValueError("policy must be one of %r, got %r" % (_POLICIES, policy))
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1, got %r" % (direction,))
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0, got %r" % (n_steps,))
    x0 = x0.frac()
    count = n_steps + 1
    # a backward orbit is the forward orbit of the inverse rotation
    step = alpha if direction == 1 else -alpha
    scan = _exact_scan if policy == "exact" else _certified_scan
    positions, signs, escalated, radius = scan(x0, step, count)

    # chunk by chunk with a carry, so cumsum's int8 -> int64 cast copy
    # stays chunk-sized
    steps = signs[: count - 1] if direction == 1 else signs[1:]
    sums = np.empty(count, dtype=np.int64)
    sums[0] = carry = 0
    for lo in range(0, count - 1, _CHUNK):
        part = sums[lo + 1 : lo + 1 + _CHUNK]
        np.cumsum(steps[lo : lo + _CHUNK], dtype=np.int64, out=part)
        if direction == -1:
            np.negative(part, out=part)
        part += carry
        carry = part[-1]

    return OrbitScan(
        x0=x0,
        alpha=alpha,
        direction=direction,
        positions=positions,
        signs=signs,
        sums=sums,
        escalated=escalated,
        radius_bound=radius,
    )


def sums_histogram(sums: np.ndarray) -> tuple:
    """(lo, counts) with counts[j] = #{i : sums[i] = lo + j}, lo = min(sums),
    in ``words.prefix_histogram``'s format; an empty array gives (0, []).

    Each ``_CHUNK`` values are binned from their own minimum, and the
    chunks' histograms added as the word's nodes' are, so no full-length
    copy is made and a chunk costs its length and span.
    """
    parts = []
    for start in range(0, sums.size, _CHUNK):
        part = sums[start : start + _CHUNK]
        base = int(part.min())
        parts.append((0, (base, np.bincount(part - base))))
    return _add_shifted(np, parts)


def _certified_scan(x0: SurdReal, step: SurdReal, count: int):
    x0f, sf, base, slope = _scan_radii(x0, step)
    positions, signs, ambiguous = scan_kernel(x0f, sf, count, base, slope)
    if ambiguous.size:
        for i in ambiguous:
            exact = (x0 + step * int(i)).frac()
            signs[i] = 1 if exact < HALF else -1
            positions[i] = float(exact)
        escalations.bump(int(ambiguous.size))
        logger.debug(
            "scan escalated %d of %d steps to exact arithmetic", ambiguous.size, count
        )
    return positions, signs, ambiguous, base + (count - 1) * slope


def _exact_scan(x0: SurdReal, step: SurdReal, count: int):
    """Integer-only scan on one frame: exact signs, float positions.

    Walks ``_EXACT_CHUNK`` points at a time from the chunk's first
    point (P, Q), which lies in [0, 1).  Its k-th point, unwrapped, is
    x_k = (P + k*Pa + (Q + k*Qa)*sqrt(d))/R, and g_k = floor(2*x_k)
    says everything the scan needs: the sign is +1 exactly when g_k is
    even, and the wrapped point is P + k*Pa - (g_k >> 1)*R over the same
    Q.  ``_floor_twice`` finds g_k from a float guess.  The last point
    of one chunk, wrapped, is the first of the next, so no chunk's
    integers grow with its index, only Q does.

    A chunk runs on int64 arrays while its bracket tests stay below
    2^62: every |2P - gR| tested is below 2R + 2|Q|*sqrt(d), and |Q| is
    largest at an end of the chunk.  Past that it runs the same code on
    object arrays of Python ints.  Positions are (P + Q*sqrt(d))/R in
    IEEE arithmetic, whichever the dtype, so they are not exact; a chunk
    whose R, |P| or |Q|*sqrt(d) may pass float range takes them from
    ``_surd_float`` instead, float() of the exact point.  With
    M = R + |Q|*sqrt(d), which bounds |P| for a point in [0, 1), the
    formula's eight roundings (d, P, Q and R to floats, the root, the
    product, the sum and the quotient) move a position by at most
    2^-53*(4R + 4.5|Q|*sqrt(d))/R to first order.  The radius returned
    is 2^-50*M/R at the largest |Q| of the walk, an end of it, since Q
    moves by Qa a step; it leaves room for the higher-order terms and
    its own rounding.
    """
    if step.is_rational:
        raise ValueError("rotation number must be irrational")
    frame = Frame(x0, step)
    R, d = frame.R, frame.d
    P, Q = frame.embed(x0)
    Pa, Qa = frame.embed(step)
    af = float(step)
    sqd = math.sqrt(d)
    root = math.isqrt(d) + 1
    top = max(abs(Q), abs(Q + (count - 1) * Qa))
    radius = 2.0**-50 * (1.0 + top / R * sqd)

    positions = np.empty(count, dtype=np.float64)
    signs = np.empty(count, dtype=np.int8)
    kf = np.arange(_EXACT_CHUNK + 1, dtype=np.float64)
    for lo in range(0, count, _EXACT_CHUNK):
        m = min(_EXACT_CHUNK, count - lo)
        top = max(abs(Q), abs(Q + m * Qa))
        dtype = np.int64 if 2 * R + 2 * top * root < _INT64_ROOT else object
        k = np.arange(m + 1, dtype=dtype)
        Pk = P + k * Pa
        Qk = Q + k * Qa
        # within 2^-38 of 2*x_k for |alpha| < 1: float(x) is within 2^-53
        # of x < 1, and each of k*af's two roundings and the sum's costs
        # at most 2^-41 for k <= 2^12, so the guess is off by at most one
        guess = np.floor(2.0 * (kf[: m + 1] * af + _surd_float(P, Q, R, d)))
        g = _floor_twice(Pk, Qk, R, d, guess.astype(np.int64).astype(dtype))
        Pk -= (g >> 1) * R
        if R + top * root < _FLOAT_ROOM:
            positions[lo : lo + m] = ((Pk + Qk * sqd) / R)[:m]
        else:
            positions[lo : lo + m] = [_surd_float(p, q, R, d) for p, q in zip(Pk[:m], Qk[:m])]
        signs[lo : lo + m] = 1 - 2 * (g[:m] & 1)
        P, Q = int(Pk[m]), int(Qk[m])
    return positions, signs, np.empty(0, dtype=np.int64), radius


def _floor_twice(P, Q, R: int, d: int, g):
    """floor(2x) for the lattice points x = (P + Q*sqrt(d))/R, from a
    guess g that is off by at most ``_ROUNDS`` - 1.

    g is right exactly when g <= 2x < g + 1, that is when p = 2P - gR
    and p - R, with q = 2Q, give ``_surd_signs`` >= 0 and < 0.  Each
    round runs both tests on the points still unsettled and moves each
    failing guess one toward 2x.  sign(q) and q*q*d are computed once
    and narrowed with the points.  P, Q and g are int64
    arrays whose tested values keep p*p and q*q*d below 2^63, or object
    arrays; g is updated in place and returned.  Raises ArithmeticError
    if the rounds run out.
    """
    at = np.arange(g.size)
    p = 2 * P - g * R
    q = 2 * Q
    sq, qqd = np.sign(q), q * q * d
    for _ in range(_ROUNDS):
        low = _surd_signs(p, sq, qqd) < 0
        high = _surd_signs(p - R, sq, qqd) >= 0
        miss = np.flatnonzero(low | high)
        if not miss.size:
            return g
        move = high[miss].astype(g.dtype) - low[miss].astype(g.dtype)
        at, p = at[miss], p[miss] - move * R
        sq, qqd = sq[miss], qqd[miss]
        g[at] += move
    raise ArithmeticError(
        "floor(2x) not settled in %d rounds at %d of %d points: the float "
        "guess was off by more than %d" % (_ROUNDS, at.size, g.size, _ROUNDS - 1)
    )
