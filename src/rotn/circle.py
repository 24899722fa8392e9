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

import math
from collections.abc import Sequence

import numpy as np

from .exactreal import Record, SurdReal
from .scan import OrbitScan, orbit_positions, orbit_scan

__all__ = ["VisitSet", "visit_set", "max_gap"]

# points per slice of _sorted_gap's differences (128 KiB of float64)
_GAP_SLICE = 1 << 14


class VisitSet(Record):
    """Times n in [0, N] with S_n(x) = m, and positions t^(n+k)(x).

    The ``density`` report reads only the times, the escalations and
    ``max_gaps`` over its horizons, which end at N.
    """

    __slots__ = _fields = ("times", "positions", "position_radius", "escalations")
    times: np.ndarray  # int64, strictly ascending
    positions: np.ndarray  # float64
    position_radius: float
    escalations: int

    def __init__(self, times: np.ndarray, positions: np.ndarray, position_radius: float,
                 escalations: int):
        self.times = times
        self.positions = positions
        self.position_radius = position_radius
        self.escalations = escalations

    @property
    def count(self) -> int:
        return int(self.times.size)

    def max_gaps(self, horizons) -> list[float]:
        """max_gap of the positions visited by each horizon h; NaN where none.

        All positions are sorted once, and that sort serves every horizon
        that saw them all.  A shorter horizon sorts its own prefix
        (positions come in time order); when horizons grow tenfold, as
        density's do, those prefixes together cost about a tenth of the
        full sort.  Taking each horizon's subset of the full sort by
        visit time instead needs an argsort, which took 3.6 times as
        long as np.sort on 400,000 floats (numpy 2.4, x86-64).  Given
        ascending horizons, each prefix is sorted and dropped before the
        full sort is made, so at most one sorted copy is alive at a time.
        Every position is checked to lie in [0, 1), whichever horizons.
        """
        gaps = []
        for h in horizons:
            cnt = int(np.searchsorted(self.times, h, side="right"))
            if cnt == 0:
                gaps.append(math.nan)
            elif cnt < self.count:
                gaps.append(_sorted_gap(_on_circle(np.sort(self.positions[:cnt]))))
            else:
                gaps.append(None)  # all of them, below
        full = _on_circle(np.sort(self.positions))  # after the prefixes
        return [_sorted_gap(full) if g is None else g for g in gaps]


def visit_set(
    x: SurdReal,
    alpha: SurdReal,
    m: int,
    N: int,
    *,
    k: int = 0,
    scan: OrbitScan | None = None,
) -> VisitSet:
    """Collect {n in [0, N] : S_n(x) = m} with positions t^(n+k)(x).

    A forward scan of at least N + max(k, 0) steps for the same x and
    alpha, of either policy, may be passed to amortize several queries;
    without one, the certified scan is taken.
    """
    if N < 0:
        raise ValueError("N must be >= 0, got %r" % (N,))
    need = N + max(k, 0)
    if scan is None:
        scan = orbit_scan(x, alpha, need)
    elif (scan.x0 != x.frac() or scan.alpha != alpha or scan.direction != 1
          or scan.sums.size < need + 1):
        raise ValueError("supplied scan is of another start or alpha, too short "
                         "or not forward")

    times = np.flatnonzero(scan.sums[: N + 1] == m)
    idx = times + k if k else times
    positions = np.empty(times.size, dtype=np.float64)
    neg = int(np.searchsorted(idx, 0))  # idx ascending; entries below 0 first
    positions[neg:] = scan.positions[idx[neg:]]
    # k < 0 can push the first few lookups backward, to exact points
    positions[:neg] = orbit_positions(x, alpha, idx[:neg])[0]
    return VisitSet(times=times, positions=positions, position_radius=scan.radius_bound,
                    escalations=int(scan.escalated.size))


def max_gap(points: np.ndarray | Sequence[float]) -> float:
    """Largest circular gap between points of R/Z, given as floats.

    One point leaves the whole circle uncovered: gap 1.  Empty input is
    an error.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("max_gap of no points")
    return _sorted_gap(_on_circle(np.sort(arr)))


def _on_circle(arr: np.ndarray) -> np.ndarray:
    """arr, ascending, after checking its ends lie in [0, 1).

    np.sort puts NaN last, so a NaN fails the check too.
    """
    if arr.size and not (0.0 <= arr[0] and arr[-1] < 1.0):
        raise ValueError("points must lie in [0, 1)")
    return arr


def _sorted_gap(arr: np.ndarray) -> float:
    """max_gap of nonempty points of [0, 1), given in ascending order.

    The gaps are taken slice by slice, each slice overlapping the next
    by one point, so no array of all the gaps is made.
    """
    if arr.size == 1:
        return 1.0
    gap = 1.0 - arr[-1] + arr[0]
    for lo in range(0, arr.size - 1, _GAP_SLICE):
        gap = max(gap, np.max(np.diff(arr[lo:lo + _GAP_SLICE + 1])))
    return float(gap)
