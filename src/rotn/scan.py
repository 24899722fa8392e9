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
so the error is linear in i with no compounding.

The "exact" policy replaces the float loop with a walk on an
``exactreal.Frame``: orbit points are integer pairs (P, Q) over one
common denominator R, a step is two integer adds, and every sign and
wrap decision is one exact integer sign test.  Positions are still
reported as floats, (P + Q*sqrt(d))/R.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .exactreal import HALF, Frame, SurdReal, escalations

__all__ = ["OrbitScan", "orbit_scan", "backend_name", "kernel_for"]

logger = logging.getLogger(__name__)

# keeps the kernel's temporaries around 8 MB regardless of scan length
_CHUNK = 1 << 20


def scan_kernel(x0, alpha, n, base_radius, radius_slope):
    """Return (pos[n], signs[n], ambiguous indices) for i = 0..n-1.

    Positions are frac(x0 + i*alpha) in double precision, signs are
    decided against 1/2, and every index whose certified interval
    touches 0, 1/2 or 1 is reported for exact escalation by the caller.
    """
    pos = np.empty(n, dtype=np.float64)
    signs = np.empty(n, dtype=np.int8)
    amb_parts = []
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        i = np.arange(lo, hi, dtype=np.float64)
        z = x0 + i * alpha
        z -= np.floor(z)
        # frac can round up to exactly 1.0 for z just under an integer
        wrapped = z >= 1.0
        if wrapped.any():
            z[wrapped] = 0.0
        pos[lo:hi] = z
        signs[lo:hi] = np.where(z < 0.5, 1, -1).astype(np.int8)
        rad = base_radius + i * radius_slope
        bad = (np.abs(z - 0.5) <= rad) | (z <= rad) | (z >= 1.0 - rad)
        if bad.any():
            amb_parts.append(np.nonzero(bad)[0].astype(np.int64) + lo)
    if amb_parts:
        ambiguous = np.concatenate(amb_parts)
    else:
        ambiguous = np.empty(0, dtype=np.int64)
    return pos, signs, ambiguous


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


@dataclass
class OrbitScan:
    """Orbit points 0..n of x0 under rotation by direction*alpha.

    positions[i] approximates t^(direction*i)(x0) in [0, 1);
    signs[i] is f there, exact under every policy;
    sums[j] is the Birkhoff sum S_(direction*j)(x0), so sums[0] = 0,
    forward sums add signs[0..j-1], backward sums are -(signs[1..j]).
    """

    x0: SurdReal
    alpha: SurdReal
    count: int
    direction: int
    policy: str
    positions: np.ndarray
    signs: np.ndarray
    sums: np.ndarray
    escalated: np.ndarray
    radius_bound: float


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

    if policy == "exact":
        positions, signs, escalated, radius = _exact_scan(x0, alpha, count, direction)
    else:
        positions, signs, escalated, radius = _certified_scan(
            x0, alpha, count, direction
        )

    sums = np.zeros(count, dtype=np.int64)
    if direction == 1:
        np.cumsum(signs[: count - 1], dtype=np.int64, out=sums[1:])
    else:
        np.cumsum(signs[1:], dtype=np.int64, out=sums[1:])
        np.negative(sums, out=sums)

    return OrbitScan(
        x0=x0,
        alpha=alpha,
        count=count,
        direction=direction,
        policy=policy,
        positions=positions,
        signs=signs,
        sums=sums,
        escalated=escalated,
        radius_bound=radius,
    )


def _certified_scan(x0: SurdReal, alpha: SurdReal, count: int, direction: int):
    x0f, af, base, slope = _scan_radii(x0, alpha)
    step = af if direction == 1 else -af
    positions, signs, ambiguous = scan_kernel(x0f, step, count, base, slope)
    if ambiguous.size:
        exact_step = alpha if direction == 1 else -alpha
        for i in ambiguous:
            exact = (x0 + exact_step * int(i)).frac()
            signs[i] = 1 if exact < HALF else -1
            positions[i] = float(exact)
        escalations.bump(int(ambiguous.size))
        logger.debug(
            "scan escalated %d of %d steps to exact arithmetic", ambiguous.size, count
        )
    return positions, signs, ambiguous, base + (count - 1) * slope


def _exact_scan(x0: SurdReal, alpha: SurdReal, count: int, direction: int):
    """Integer-only scan on one frame: exact signs, float positions.

    x0 lies in [0, 1) and the step in (-1, 1), so after a step one
    wrap test, in the step's direction, brings the point back.  A step
    shorter than 1/2 cannot wrap from the half of the circle away from
    the edge it moves toward, and then the test is skipped.
    """
    if alpha.is_rational:
        raise ValueError("rotation number must be irrational")
    frame = Frame(x0, alpha, HALF)
    R, sign = frame.R, frame.sign
    P, Q = frame.embed(x0)
    Pa, Qa = frame.embed(alpha if direction == 1 else -alpha)
    Ph, _ = frame.embed(HALF)
    short = sign(Ph - direction * Pa, -direction * Qa) > 0

    sqd = math.sqrt(frame.d)
    positions = np.empty(count, dtype=np.float64)
    signs = np.empty(count, dtype=np.int8)
    for i in range(count):
        positions[i] = (P + Q * sqd) / R
        left = sign(P - Ph, Q) < 0  # 1/2 itself is on the right
        signs[i] = 1 if left else -1
        P += Pa
        Q += Qa
        if direction == 1:
            if not (short and left) and sign(P - R, Q) >= 0:
                P -= R
        elif (left or not short) and sign(P, Q) < 0:
            P += R
    return positions, signs, np.empty(0, dtype=np.int64), 0.0
