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
the largest circular gap between those positions.  One routine, ``_gap``,
takes every such gap: it finds the only gaps that can be largest from
which of n/8 to n/4 equal buckets hold a point, and sorts just their
points, so it returns the float a full sort gives, bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .exactreal import Record, SurdReal
from .scan import OrbitScan, orbit_positions, orbit_scan

__all__ = ["VisitSet", "visit_set", "max_gap"]

# points per slice of _sorted_gap's differences and of _gap's bucket ids
# and range tests (128 KiB of float64 or intp)
_GAP_SLICE = 1 << 14
# _gap sorts all the points below _BUCKET_MIN of them; it finds the points
# of up to _PAIRS_MAX pairs of buckets by a range test a pair
_BUCKET_MIN = 1 << 12
_PAIRS_MAX = 4


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
        self._store(times, positions, position_radius, escalations)

    @property
    def count(self) -> int:
        return int(self.times.size)

    def max_gaps(self, horizons) -> list[float]:
        """max_gap of the positions visited by each horizon h; NaN where none.

        Positions come in time order, so a horizon's positions are a
        prefix, and ``_gap`` takes each prefix's gap in place.  The gap of
        all of them is taken whichever the horizons, so every position is
        checked to lie in [0, 1).
        """
        full = _gap(self.positions) if self.count else math.nan
        gaps = []
        for h in horizons:
            cnt = int(np.searchsorted(self.times, h, side="right"))
            gaps.append(math.nan if cnt == 0 else full if cnt == self.count
                        else _gap(self.positions[:cnt]))
        return gaps


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
    """Largest circular gap between points of R/Z, given as floats in [0, 1).

    One point leaves the whole circle uncovered: gap 1.  Empty input is
    an error.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("max_gap of no points")
    return _gap(arr)


def _gap(points: np.ndarray) -> float:
    """max_gap of nonempty float64 points, in any order, sorting few of them.

    Fewer than ``_BUCKET_MIN`` points it sorts, and range-checks the
    sorted ends.  Otherwise, after checking that the points lie in [0, 1)
    (a NaN fails too), it puts them into B = 2^(bit_length(n) - 3)
    buckets, id floor(p*B), exact since B is a power of two.  The ids are
    taken a slice at a time, and only which buckets hold a point is kept.
    Let D be the largest circular distance between consecutive occupied
    buckets.  The gap across a pair at distance delta >= D - 1 exceeds
    (D - 1)/B; every other gap, across a pair or within a bucket, is
    below it; (D - 1)/B is a float, so the rounding of q - p keeps that
    order.  So the largest gap is the wrap 1.0 - max + min, or
    min(right bucket) - max(left bucket) over those pairs: the
    subtractions a full sort makes, of the same floats.  Only the points
    of those pairs' buckets are gathered and sorted: by a range test a
    pair for up to ``_PAIRS_MAX`` pairs, each about a tenth of the cost
    of a sort, or else by taking the ids again.  With D < 3 every pair
    would qualify, and it sorts all the points, as below ``_BUCKET_MIN``.
    """
    n = points.size
    if n < _BUCKET_MIN:
        return _sorted_gap(np.sort(points))
    lo, hi = points.min(), points.max()
    _check_range(lo, hi)
    B = 1 << (n.bit_length() - 3)
    slices = [points[start:start + _GAP_SLICE] for start in range(0, n, _GAP_SLICE)]
    occupied = np.zeros(B, dtype=bool)
    ids = np.empty(_GAP_SLICE, dtype=np.intp)
    for part in slices:
        np.multiply(part, B, out=ids[:part.size], casting="unsafe")
        occupied[ids[:part.size]] = True
    occ = np.flatnonzero(occupied)
    delta = np.diff(occ)
    D = max(int(delta.max(initial=0)), B - int(occ[-1]) + int(occ[0]))
    if D < 3:
        return _sorted_gap(np.sort(points))
    gap = 1.0 - hi + lo
    pairs = np.flatnonzero(delta >= D - 1)
    if not pairs.size:
        return float(gap)
    left, right = occ[pairs], occ[pairs + 1]
    if pairs.size <= _PAIRS_MAX:
        spans = [(a / B, (b + 1) / B) for a, b in zip(left.tolist(), right.tolist())]
        few = [part[(part >= a) & (part < b)] for part in slices for a, b in spans]
    else:
        wanted = np.zeros(B, dtype=bool)
        wanted[left] = wanted[right] = True
        few = []
        for part in slices:
            np.multiply(part, B, out=ids[:part.size], casting="unsafe")
            few.append(part[wanted[ids[:part.size]]])
    few = np.sort(np.concatenate(few))
    few_ids = (few * B).astype(np.intp)
    ends = few[np.searchsorted(few_ids, left, side="right") - 1]
    starts = few[np.searchsorted(few_ids, right)]
    return float(max(gap, np.max(starts - ends)))


def _check_range(lo, hi) -> None:
    """Refuse points whose least lo or greatest hi lies outside [0, 1);
    a NaN fails too."""
    if not (0.0 <= lo and hi < 1.0):
        raise ValueError("points must lie in [0, 1)")


def _sorted_gap(arr: np.ndarray) -> float:
    """max_gap of nonempty points, given in ascending order, after
    checking their ends lie in [0, 1) (``np.sort`` puts a NaN last).

    The gaps are taken slice by slice, each slice overlapping the next
    by one point, so no array of all the gaps is made.
    """
    _check_range(arr[0], arr[-1])
    if arr.size == 1:
        return 1.0
    gap = 1.0 - arr[-1] + arr[0]
    for lo in range(0, arr.size - 1, _GAP_SLICE):
        gap = max(gap, np.max(np.diff(arr[lo:lo + _GAP_SLICE + 1])))
    return float(gap)
