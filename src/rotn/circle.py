"""Visit sets of the sign cocycle and circular gaps.

Everything lives on R/Z.  The rotation is t(x) = x + alpha mod 1 for an
irrational quadratic alpha; the observable is f = +1 on [0, 1/2) and
-1 on [1/2, 1); Birkhoff sums are S_0 = 0,
S_n(x) = f(x) + f(tx) + ... + f(t^(n-1) x) for n > 0, and
S_(-n)(x) = -(f(t^(-1) x) + ... + f(t^(-n) x)).  Exact points and
rotation numbers are plain ``SurdReal`` values: t^n(x) is
``(x + alpha*n).frac()``, and ``scan.orbit_scan`` gives the sums.

``visit_set`` collects the times n in [0, N] with S_n(x) = m together
with the circle positions t^(n+k)(x); the density experiments reduce to
the largest circular gap between those positions.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .exactreal import SurdReal
from .scan import OrbitScan, orbit_scan

__all__ = ["VisitSet", "visit_set", "max_gap"]


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
    x: SurdReal,
    alpha: SurdReal,
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
    need = N + max(k, 0)
    if scan is None:
        scan = orbit_scan(x, alpha, need, policy=policy)
    elif scan.direction != 1 or scan.count < need + 1:
        raise ValueError("supplied scan is too short or not forward")

    times = np.flatnonzero(scan.sums[: N + 1] == m)
    idx = times + k if k else times
    positions = np.empty(times.size, dtype=np.float64)
    neg = int(np.searchsorted(idx, 0))  # idx ascending; entries below 0 first
    positions[neg:] = scan.positions[idx[neg:]]
    for j in range(neg):  # k < 0 can push the first few lookups backward
        positions[j] = float((x + alpha * int(idx[j])).frac())
    return VisitSet(
        m=m,
        k=k,
        horizon=N,
        times=times,
        positions=positions,
        position_radius=scan.radius_bound,
        escalations=int(scan.escalated.size),
    )


def max_gap(points: np.ndarray | Sequence[float]) -> float:
    """Largest circular gap between points of R/Z, given as floats.

    One point leaves the whole circle uncovered: gap 1.  Empty input is
    an error.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("max_gap of no points")
    if np.any((arr < 0.0) | (arr >= 1.0)):
        raise ValueError("points must lie in [0, 1)")
    if arr.size == 1:
        return 1.0
    arr = np.sort(arr)
    wrap = 1.0 - arr[-1] + arr[0]
    return float(max(np.max(np.diff(arr)), wrap))
