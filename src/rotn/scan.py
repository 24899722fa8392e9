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

Callers that need signs only, such as the tower route's prefix checks,
take them from ``key_signs``, which computes no position or sum.  Its
lemma: with K0 = floor(x0*2^64) and Ka = floor(alpha*2^64), both mod
2^64, the key X_i = K0 + i*Ka mod 2^64 is exact in wrapping uint64
arithmetic, and the true x_i*2^64 mod 2^64 lies in [X_i, X_i + i + 1).
So f(x_i) = +1 exactly when X_i < 2^63, and that is proven unless X_i
lies within i + 1 below 2^63 or below 2^64; only at those indices does
the exact test decide.  The band is (i + 1)*2^-64 wide on each side,
so n steps of an equidistributed orbit meet it about n^2*2^-64 times.

The "exact" policy, the ground truth, reads the same keys: ``_key_walk``
takes 2^13 points at a time, re-keyed at each chunk's first point, which
it holds exactly as an integer pair (P, Q) over the common denominator
R of an ``exactreal.Frame``.  Past the sign, the key gives the floor of
the unwrapped point: the high word of K0 + k*floor(alpha*2^64), which
is k*h, for floor(alpha*2^64) = h*2^64 + Ka, plus the count of uint64
wraps X_k < X_(k-1) so far, again proven outside the band.  The few
points in the band take the exact floor and sign of their point, by
``SurdReal``.  With the floor W_k exact, the wrapped lattice point is
P + k*Pa - W_k*R over Q + k*Qa, on int64 while that fits and on Python
ints past that; the keys stay uint64, and no square is formed.  Each
chunk costs a few uint64 passes (8-10 ns a step folded, 11-13 ns with
positions on int64; 2-core host), and its band restarts at width 1.
The walk has two consumers: ``orbit_scan(policy="exact")`` writes its
positions, as floats (P + Q*sqrt(d))/R, signs and sums into arrays of
n + 1 points, and ``exact_sums`` folds each chunk's sums into a
histogram as it comes, with no position and no array of length n,
keeping only a prefix of the signs.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .exactreal import HALF, Frame, Record, SurdReal, _surd_float, escalations
from .words import _add_shifted

__all__ = ["OrbitScan", "orbit_scan", "exact_sums", "key_signs", "orbit_positions",
           "sums_histogram", "backend_name", "kernel_for"]

logger = logging.getLogger(__name__)

# Scan chunk length: the kernel's buffers (18 bytes per index) and the
# chunk of positions and signs it writes (9 more) take 1.8 MB, so one
# chunk's whole pass stays inside a 2 MB per-core L2 cache.
_CHUNK = 1 << 16

# ``key_signs``' fixed point, a point x of [0, 1) keying as floor(x*2^64),
# and its chunk length.  Its two uint64 buffers of 128 KB each come from
# the heap: at 2^15 and 2^16 each call mapped them afresh, at 96 and 224
# minor page faults, and 2^16 keys took 0.26 and 0.62 ms against 0.21 ms
# here (best of 200, in process, 2-core host); at 2^12 the per-chunk
# calls cost 0.39 ms.
_KEY_ONE = 1 << 64
_KEY_HALF = 1 << 63
_KEY_CHUNK = 1 << 14
# ``_key_walk``'s chunk length: its 64 KB buffers stay below glibc's
# 128 KB mmap threshold.  At 2^14 the exact_walk workload's peak RSS
# rose 0.06-0.25 MB over the bracket walk's in 7 of 7 seeds, and at 2^13
# (3 seeds) it did not, for about 1 ns a step more in process (2-core host)
_WALK_CHUNK = 1 << 13

# the IEEE position formula turns R, P and Q*sqrt(d) into floats; below
# this bound on them none overflows
_FLOAT_ROOM = 1 << 1023


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


def key_signs(x0: SurdReal, step: SurdReal, n: int):
    """Return (signs[n], undecided) for the points x_i = frac(x0 + i*step),
    i = 0..n-1: signs[i] = f(x_i), exactly, and the int64 indices whose
    sign the 64-bit key left open, ascending.

    The module's key lemma, with step for alpha: f(x_i) = +1 exactly when
    X_i < 2^63, unless 2^63 - X_i or 2^64 - X_i lies in [1, i + 1].  Only
    those undecided indices take the exact test
    (x0 + i*step).frac() < 1/2, and each bumps ``escalations``.  The keys
    are formed ``_KEY_CHUNK`` at a time, as the chunk's first key plus
    k*Ka, through buffers allocated once per call, and ``_key_band``
    reads their signs and band.  Unlike the exact walk, it keys every
    chunk off x0, so its band widens with i.
    """
    x0 = x0.frac()
    k0 = math.floor(x0 * _KEY_ONE)
    ka = math.floor(step * _KEY_ONE) % _KEY_ONE
    signs = np.empty(n, dtype=np.int8)
    offsets = np.arange(min(n, _KEY_CHUNK), dtype=np.uint64) * np.uint64(ka)  # k*Ka, wrapped
    keys, b = np.empty_like(offsets), np.empty(offsets.size, dtype=bool)
    undecided = []
    for lo in range(0, n, _KEY_CHUNK):
        m = min(_KEY_CHUNK, n - lo)
        X = np.add(offsets[:m], np.uint64((k0 + lo * ka) % _KEY_ONE), out=keys[:m])
        cand = _key_band(X, signs[lo:lo + m], b, lo)
        if cand.size:
            undecided.append(lo + cand)
    undecided = np.concatenate(undecided) if undecided else np.empty(0, dtype=np.int64)
    for i in undecided.tolist():
        signs[i] = 1 if (x0 + step * i).frac() < HALF else -1
    if undecided.size:
        escalations.bump(int(undecided.size))
    return signs, undecided


def _key_band(X, s, b, lo: int):
    """Write f of the keys X into s, of their length, and return the
    int64 offsets j whose key the sign or the wrap leaves open: X[j]
    within lo + j + 1 below 2^63 or 2^64.  b is a bool buffer as long as
    X, and X is reduced mod 2^63 in place.  The band test screens X
    with the width of its last offset, then tests each candidate with
    its own.
    """
    m = X.size
    np.less(X, _KEY_HALF, out=b[:m])
    np.multiply(b[:m].view(np.int8), 2, out=s)
    s -= 1
    # X mod 2^63 is within w below 2^63 exactly when X is within w
    # below 2^63 or 2^64
    X &= _KEY_HALF - 1
    np.greater_equal(X, _KEY_HALF - (lo + m), out=b[:m])
    cand = np.flatnonzero(b[:m])
    if cand.size:
        cand = cand[X[cand] >= _KEY_HALF - 1 - (lo + cand).astype(np.uint64)]
    return cand


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


def orbit_positions(x0: SurdReal, alpha: SurdReal, indices: np.ndarray, shift: int = 0):
    """Positions t^i(x0) at the integer indices i = indices + shift, as the scan gives them.

    Returns (positions, escalated, radius_bound); an index array of any
    other dtype raises ValueError.  The indices, in any
    order, run through the kernel's own ``_float_chunk``, without signs,
    ``_CHUNK`` at a time, each chunk shifted into one float buffer, so
    no shifted copy of the indices is made; since they need not ascend,
    a chunk's screen radius is that of its largest index.  An index
    i >= 0 gets the kernel's float frac(x0 + i*alpha), or the float of the
    exact point where the kernel's radius test flags i (those i come back,
    shifted, as ``escalated``), so each position is bit-equal to
    ``orbit_scan(x0, alpha, n).positions[i]`` for any n >= i.  An index
    below 0 is outside the radius model and gets the exact point.
    radius_bound is the certified radius at the largest index.
    """
    if indices.dtype.kind not in "iu":
        raise ValueError("indices must be an integer array, got dtype %s" % (indices.dtype,))
    x0 = x0.frac()
    x0f, af, base, slope = _scan_radii(x0, alpha)
    pos = np.empty(indices.size, dtype=np.float64)
    scratch = _scratch(min(indices.size, _CHUNK))
    shifted = np.empty(min(indices.size, _CHUNK))
    escalated = []
    for lo in range(0, indices.size, _CHUNK):
        idx = indices[lo:lo + _CHUNK]
        i = shifted[:idx.size]
        np.add(idx, shift, out=i)  # summed in int64, then cast, as (idx + shift).astype would
        z = pos[lo:lo + i.size]
        bad = _float_chunk(i, i.max(), x0f, af, base, slope, z, None, scratch)
        bad = bad[i[bad] >= 0]
        escalated.append(idx[bad] + shift)
        for j in np.flatnonzero(i < 0).tolist() + bad.tolist():
            z[j] = float((x0 + alpha * (int(idx[j]) + shift)).frac())
    escalated = np.concatenate(escalated) if escalated else np.empty(0, dtype=np.int64)
    if escalated.size:
        escalations.bump(int(escalated.size))
    top = int(indices.max()) + shift if indices.size else 0
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
        self._store(x0, alpha, direction, positions, signs, sums, escalated, radius_bound)


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

    Writes ``_key_walk``'s chunks into arrays of count points.  The
    radius returned is 2^-50*M/R, with M = R + |Q|*sqrt(d), at the
    largest |Q| of the walk, an end of it, since Q moves by Qa a step:
    ``_key_walk`` bounds each position's rounding by
    2^-53*(4R + 4.5|Q|*sqrt(d))/R to first order, and this leaves room for
    the higher-order terms and its own rounding.
    """
    positions = np.empty(count, dtype=np.float64)
    signs = np.empty(count, dtype=np.int8)
    for lo, s in _key_walk(x0, step, count, positions):
        signs[lo : lo + s.size] = s
    frame = Frame(x0, step)
    Q, Qa = frame.embed(x0)[1], frame.embed(step)[1]
    top = max(abs(Q), abs(Q + (count - 1) * Qa))
    radius = 2.0**-50 * (1.0 + top / frame.R * math.sqrt(frame.d))
    return positions, signs, np.empty(0, dtype=np.int64), radius


# exact_sums adds up its chunks' histograms once it holds this many
_FOLD_PARTS = 256


def exact_sums(x0: SurdReal, alpha: SurdReal, n: int, keep: int) -> tuple:
    """(lo, counts, S_n, signs) of the forward orbit of x0 by the exact
    walk, with no array of length n: (lo, counts) is the histogram of
    S_1..S_n in ``sums_histogram``'s format and signs the first keep <= n
    signs, int8, so they equal ``sums_histogram(scan.sums[1:])``,
    ``scan.sums[n]`` and ``scan.signs[:keep]`` of
    ``orbit_scan(x0, alpha, n, policy="exact")``.

    Folds ``_key_walk``'s chunks of n points, with no position: a
    chunk's sums are the sum of the signs before it plus its own signs'
    cumsum, which is binned from its own minimum as ``sums_histogram``
    bins a chunk and shifted by that carry, and the histograms are added
    up every ``_FOLD_PARTS`` chunks.
    """
    if not 0 <= keep <= n:
        raise ValueError("keep must be in [0, %d], got %r" % (n, keep))
    kept = np.empty(keep, dtype=np.int8)
    sums = np.empty(min(n, _WALK_CHUNK), dtype=np.int64)
    parts, carry = [], 0
    for lo, s in _key_walk(x0, alpha, n):
        if lo < keep:
            kept[lo : lo + s.size] = s[: keep - lo]
        part = sums[: s.size]
        np.cumsum(s, out=part)
        base = int(part.min())
        part -= base
        parts.append((carry, (base, np.bincount(part))))
        carry += base + int(part[-1])
        if len(parts) == _FOLD_PARTS:
            parts = [(0, _add_shifted(np, parts))]
    return (*_add_shifted(np, parts), carry, kept)


def _key_walk(x0: SurdReal, step: SurdReal, count: int, positions=None):
    """The exact walk of the count points x_k = frac(x0 + k*step), read
    off the 64-bit key: yields, for each chunk of points lo, lo + 1, ...,
    (lo, signs), their exact signs as int8 in a buffer that the next
    chunk overwrites, and writes their float positions into
    positions[lo:...] when positions is given.

    Takes ``_WALK_CHUNK`` points at a time, re-keyed at the chunk's first
    point x_lo, exact on one frame as (P, Q) over R and wrapped into
    [0, 1): K0 = floor(x_lo*2^64), and with floor(step*2^64) =
    h*2^64 + Ka, X_k = K0 + k*Ka mod 2^64.  By the module's key lemma
    the sign of x_lo + k*step is +1 exactly when X_k < 2^63, and its floor
    W_k is k*h plus the wraps of the low word so far, the k' in 1..k with
    X_k' < X_(k'-1): (x_lo + k*step)*2^64 = K0 + k*(h*2^64 + Ka) + e with
    e in [0, k + 1), and K0 + k*Ka + e passes the next multiple of 2^64
    beyond K0 + k*Ka only if X_k is within k + 1 below it.  The indices
    whose key lies within k + 1 below 2^63 or 2^64 take the exact sign
    and floor of the unwrapped point instead, by ``SurdReal`` floor and
    one ``_surd_sign`` test; that is no escalation, as nothing was
    certified.  Each chunk's first point and key come from the exact
    floor of the last chunk's end times 2^64, so no error carries over.

    The wrapped point is P_k = P + k*Pa - W_k*R over Q_k = Q + k*Qa,
    the lattice point itself, on int64 while that arithmetic fits and on
    Python ints past that; the keys stay uint64 and no square is formed.
    Positions are (P_k + Q_k*sqrt(d))/R in IEEE arithmetic, whichever the
    dtype, so they are not exact; a chunk whose R, |P| or |Q|*sqrt(d) may
    pass float range takes them from ``_surd_float`` instead, float() of
    the exact point.  With M = R + |Q|*sqrt(d), which bounds |P| for a
    point in [0, 1), the formula's eight roundings (d, P, Q and R to
    floats, the root, the product, the sum and the quotient) move a
    position by at most 2^-53*(4R + 4.5|Q|*sqrt(d))/R to first order.
    """
    if step.is_rational:
        raise ValueError("rotation number must be irrational")
    frame = Frame(x0, step)
    R, d = frame.R, frame.d
    P, Q = frame.embed(x0)
    Pa, Qa = frame.embed(step)
    h, ka = divmod(math.floor(step * _KEY_ONE), _KEY_ONE)
    sqd, root = math.sqrt(d), math.isqrt(d) + 1
    size = min(count, _WALK_CHUNK)
    offsets = np.arange(size, dtype=np.uint64) * np.uint64(ka)  # k*Ka, wrapped
    keys, b = np.empty_like(offsets), np.empty(size, dtype=bool)
    signs = np.empty(size, dtype=np.int8)
    if positions is not None:  # the floors, which only positions need
        ks, floors = np.arange(size), np.empty(size, dtype=np.int64)
    for lo in range(0, count, _WALK_CHUNK):
        m = min(_WALK_CHUNK, count - lo)
        # the chunk's first point, unwrapped: its floor, and its key below that
        top, key = divmod(math.floor(frame.surd(P << 64, Q << 64)), _KEY_ONE)
        P -= top * R
        X, s = np.add(offsets[:m], np.uint64(key), out=keys[:m]), signs[:m]
        if positions is not None:
            b[0] = False
            np.less(X[1:], X[:-1], out=b[1:m])
            W = np.cumsum(b[:m], out=floors[:m])
            if h:
                W += ks[:m] * h
        for j in _key_band(X, s, b, 0).tolist():
            y = frame.surd(P + j * Pa, Q + j * Qa)
            g = math.floor(y)
            s[j] = 1 if y - g < HALF else -1
            if positions is not None:
                W[j] = g
        if positions is not None:
            z = positions[lo : lo + m]
            Pk, Qk = _lattice(ks[:m], W, P, Pa, Q, Qa, R)
            if R + max(abs(Q), abs(Q + m * Qa)) * root < _FLOAT_ROOM:
                np.multiply(Qk, sqd, out=z, casting="unsafe")
                np.add(z, Pk, out=z, casting="unsafe")
                z /= R
            else:
                z[:] = [_surd_float(p, q, R, d) for p, q in zip(Pk.tolist(), Qk.tolist())]
        yield lo, s
        P, Q = P + m * Pa, Q + m * Qa


def _lattice(k, W, P: int, Pa: int, Q: int, Qa: int, R: int):
    """The lattice points (P + k*Pa - W*R, Q + k*Qa) for the int64 arrays
    k, ascending from 0, and W, monotone from 0: int64 arrays while every
    term fits, else object arrays of Python ints.
    """
    if abs(P) + abs(Q) + k.size * (abs(Pa) + abs(Qa)) + (abs(int(W[-1])) + 1) * R >= _KEY_HALF:
        k, W = k.astype(object), W.astype(object)
    Pk, Qk = k * Pa, k * Qa
    Pk += P
    Pk -= W * R
    Qk += Q
    return Pk, Qk
