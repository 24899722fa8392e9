"""The rotation, the sign cocycle, and visit statistics.

Everything lives on R/Z.  The rotation is t(x) = x + alpha mod 1 for an
irrational quadratic alpha; the observable is f = +1 on [0, 1/2) and
-1 on [1/2, 1); Birkhoff sums are S_0 = 0,
S_n(x) = f(x) + f(tx) + ... + f(t^(n-1) x) for n > 0, and
S_(-n)(x) = -(f(t^(-1) x) + ... + f(t^(-n) x)).

``visit_set`` collects the times n in [0, N] with S_n(x) = m together
with the circle positions t^(n+k)(x); the density experiments reduce to
the largest circular gap between those positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .exactreal import HALF, CFNumber, CertifiedFloat, SurdReal
from .scan import OrbitScan, orbit_scan

__all__ = [
    "CirclePoint",
    "SkewPoint",
    "VisitSet",
    "rotate",
    "sign_f",
    "skew_step",
    "birkhoff",
    "visit_set",
    "max_gap",
]

AlphaLike = Union[CFNumber, SurdReal]
PointLike = Union["CirclePoint", SurdReal, int, Fraction]


def _alpha_value(alpha: AlphaLike) -> SurdReal:
    if isinstance(alpha, CFNumber):
        return alpha.value
    if isinstance(alpha, SurdReal):
        return alpha
    raise TypeError("alpha must be a CFNumber or SurdReal, got %r" % (type(alpha),))


class CirclePoint:
    """A point of R/Z held exactly, with a cached certified float shadow."""

    __slots__ = ("position", "_shadow")

    def __init__(self, position: PointLike):
        if isinstance(position, CirclePoint):
            position = position.position
        elif isinstance(position, (int, Fraction)):
            position = SurdReal.from_fraction(position)
        elif not isinstance(position, SurdReal):
            raise TypeError("position must be exact, got %r" % (type(position),))
        object.__setattr__(self, "position", position.frac())
        object.__setattr__(self, "_shadow", None)

    def __setattr__(self, name, value):
        raise AttributeError("CirclePoint is immutable")

    @property
    def shadow(self) -> CertifiedFloat:
        s = self._shadow
        if s is None:
            s = self.position.certified()
            object.__setattr__(self, "_shadow", s)
        return s

    def __float__(self):
        return self.shadow.value

    def __eq__(self, other):
        if isinstance(other, CirclePoint):
            return self.position == other.position
        return NotImplemented

    def __hash__(self):
        return hash(self.position)

    def __repr__(self):
        return "CirclePoint[%s ~ %.12g]" % (self.position.exact_str(), float(self))


@dataclass(frozen=True)
class SkewPoint:
    """A point of the skew product: circle position plus integer level."""

    base: CirclePoint
    level: int


def rotate(x: PointLike, alpha: AlphaLike, n: int = 1) -> CirclePoint:
    """t^n(x) = x + n*alpha mod 1, exactly; n may be negative."""
    x = CirclePoint(x)
    return CirclePoint(x.position + _alpha_value(alpha) * n)


def sign_f(x: PointLike) -> int:
    """+1 on [0, 1/2), -1 on [1/2, 1); both endpoints land in the -1 half."""
    x = CirclePoint(x)
    return 1 if x.position < HALF else -1


def skew_step(p: SkewPoint, alpha: AlphaLike) -> SkewPoint:
    """One step of T(x, s) = (tx, s + f(x))."""
    return SkewPoint(rotate(p.base, alpha), p.level + sign_f(p.base))


def birkhoff(
    x: PointLike, alpha: AlphaLike, n: int, *, policy: str = "certified"
) -> int:
    """S_n(x) for signed n, by direct summation along the orbit.

    Certified policy escalates ambiguous steps to exact arithmetic, so
    the result is exact either way.  For large n along a renormalizable
    alpha, renorm.fast_birkhoff is the logarithmic alternative.
    """
    if n == 0:
        return 0
    a = _alpha_value(alpha)
    scan = orbit_scan(
        CirclePoint(x).position,
        a,
        abs(n),
        direction=1 if n > 0 else -1,
        policy=policy,
    )
    return scan.sum_at(abs(n))


@dataclass
class VisitSet:
    """Times n in [0, N] with S_n(x) = m, and positions t^(n+k)(x)."""

    m: int
    k: int
    horizon: int
    times: np.ndarray  # int64, strictly ascending
    positions: np.ndarray  # float64
    position_radius: float
    escalations: int

    @property
    def count(self) -> int:
        return int(self.times.size)

    @property
    def first_time(self) -> int | None:
        return int(self.times[0]) if self.times.size else None

    def max_gap(self) -> float:
        return max_gap(self.positions)

    def summary(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "N": self.horizon,
            "count": self.count,
            "first_time": self.first_time,
            "max_gap": self.max_gap() if self.count else None,
        }


def visit_set(
    x: PointLike,
    alpha: AlphaLike,
    m: int,
    N: int,
    *,
    k: int = 0,
    policy: str = "certified",
    scan: OrbitScan | None = None,
) -> VisitSet:
    """Collect {n in [0, N] : S_n(x) = m} with positions t^(n+k)(x).

    A precomputed forward scan of at least N + max(k, 0) steps for the
    same x, alpha and policy may be passed to amortize several queries.
    """
    if N < 0:
        raise ValueError("N must be >= 0, got %r" % (N,))
    x = CirclePoint(x)
    a = _alpha_value(alpha)
    need = N + max(k, 0)
    if scan is None:
        scan = orbit_scan(x.position, a, need, policy=policy)
    elif scan.direction != 1 or scan.count < need + 1:
        raise ValueError("supplied scan is too short or not forward")

    times = np.nonzero(scan.sums[: N + 1] == m)[0].astype(np.int64)
    idx = times + k
    positions = np.empty(times.size, dtype=np.float64)
    neg = int(np.searchsorted(idx, 0))  # idx ascending; entries below 0 first
    positions[neg:] = scan.positions[idx[neg:]]
    for j in range(neg):  # k < 0 can push the first few lookups backward
        positions[j] = float((x.position + a * int(idx[j])).frac())
    return VisitSet(
        m=m,
        k=k,
        horizon=N,
        times=times,
        positions=positions,
        position_radius=scan.radius_bound,
        escalations=int(scan.escalated.size),
    )


def max_gap(points: Union[np.ndarray, Sequence]) -> float:
    """Largest circular gap between points of R/Z, as a float.

    Accepts CirclePoints, floats, or anything float() takes.  One point
    leaves the whole circle uncovered: gap 1.  Empty input is an error.
    """
    if isinstance(points, np.ndarray):
        arr = np.asarray(points, dtype=np.float64)
    else:
        arr = np.array([float(p) for p in points], dtype=np.float64)
    if arr.size == 0:
        raise ValueError("max_gap of no points")
    if np.any((arr < 0.0) | (arr >= 1.0)):
        raise ValueError("points must lie in [0, 1)")
    if arr.size == 1:
        return 1.0
    arr = np.sort(arr)
    wrap = 1.0 - arr[-1] + arr[0]
    return float(max(np.max(np.diff(arr)), wrap))
