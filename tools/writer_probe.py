"""Print the microseconds per row of harness.write_columns, the writer of `rotn --out`.

Five table shapes, each at 25,000 and 10^6 rows:
- heavy: a range of indices, float64 positions and int64 sums;
- leaf: a backward range of indices, float64 entry points and int64 levels;
- heavy-scan and leaf-scan: the same, with the positions and sums of a
  certified scan of [0;(2)] from 1/2, forward and backward, in place of
  random ones; real positions include 0.5 and short decimals, which the
  numeric writer hands to float.__repr__;
- density: one list per column, of ints, ints, ints or None, and floats
  with a NaN, as density's horizon rows are.
The values are seeded, so each run writes the same tables.  Each table is
timed in a fresh interpreter: one warm-up write, then max(3, 10^6 // rows)
writes to a temporary file (40 at 25,000 rows).  It prints the best
write, as a shared host's load swings single writes by half, the median
write, and the minor page faults per write (ru_minflt of that
interpreter over the timed writes, divided by their count).
tools/check.sh runs it at a commit and in the checkout, for information.
Usage: PYTHONPATH=SRC python3 tools/writer_probe.py [SHAPE ROWS]
"""

import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

SHAPES = ("heavy", "leaf", "heavy-scan", "leaf-scan", "density")
ROWS = (25_000, 10 ** 6)


def _table(shape: str, rows: int):
    import numpy as np

    if shape.endswith("-scan"):
        from rotn.exactreal import HALF, parse_cf
        from rotn.scan import orbit_scan

        backward = shape == "leaf-scan"
        scan = orbit_scan(HALF, parse_cf("[0;(2)]").value, rows - 1,
                          direction=-1 if backward else 1)
        if backward:
            return ["n", "x", "level"], [range(0, -rows, -1), scan.positions, scan.sums + 3]
        return ["n", "position", "S_n"], [range(rows), scan.positions, scan.sums]
    rng = np.random.default_rng(rows)
    x = rng.random(rows)
    walk = np.cumsum(rng.choice(np.array([-1, 1], dtype=np.int64), rows))
    if shape == "heavy":
        return ["n", "position", "S_n"], [range(rows), x, walk]
    if shape == "leaf":
        return ["n", "x", "level"], [range(0, -rows, -1), x, walk + 3]
    first = [None if i % 7 == 0 else 3 * i for i in range(rows)]
    gaps = x.tolist()
    gaps[::11] = [math.nan] * len(gaps[::11])
    return (["N", "count", "first_time", "max_gap"],
            [[10 * i + 1 for i in range(rows)], walk.tolist(), first, gaps])


def _time_one(shape: str, rows: int):
    """(best, median) microseconds per row of one table's writes, and its
    minor page faults per write."""
    from rotn.harness import ExperimentConfig, write_columns

    config = ExperimentConfig(kind="heavy", N=1)
    names, cols = _table(shape, rows)
    times = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "probe.csv")
        write_columns(path, config, names, cols)  # warm-up
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(max(3, 10 ** 6 // rows)):
            start = time.perf_counter()
            write_columns(path, config, names, cols)
            times.append(time.perf_counter() - start)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return (1e6 * min(times) / rows, 1e6 * statistics.median(times) / rows,
            faults / len(times))


def main() -> None:
    if len(sys.argv) == 3:
        shape, rows = sys.argv[1], int(sys.argv[2])
        print("%-10s %9d rows: %6.3f us/row best, %6.3f median, %7.1f minor faults/write"
              % ((shape, rows) + _time_one(shape, rows)))
        return
    for shape in SHAPES:
        for rows in ROWS:
            subprocess.run([sys.executable, __file__, shape, str(rows)], check=True)


if __name__ == "__main__":
    main()
