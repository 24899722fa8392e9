"""Print the microseconds per row of harness.write_columns, the writer of `rotn --out`.

Three table shapes, each at 25,000 and 10^6 rows:
- heavy: a range of indices, float64 positions and int64 sums;
- leaf: a backward range of indices, float64 entry points and int64 levels;
- density: one list per column, of ints, ints, ints or None, and floats
  with a NaN, as density's horizon rows are.
The values are seeded, so each run writes the same tables.  Each table is
timed in a fresh interpreter: one warm-up write, then the best of
max(3, 10^6 // rows) writes to a temporary file (40 at 25,000 rows), as
a shared host's load swings single writes by half.  tools/check.sh runs
it at a commit and in the checkout, for information.
Usage: PYTHONPATH=SRC python3 tools/writer_probe.py
"""

import math
import os
import subprocess
import sys
import tempfile
import time

SHAPES = ("heavy", "leaf", "density")
ROWS = (25_000, 10 ** 6)


def _table(shape: str, rows: int):
    import numpy as np

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


def _time_one(shape: str, rows: int) -> float:
    """The best write of one table, in microseconds per row."""
    from rotn.harness import ExperimentConfig, write_columns

    config = ExperimentConfig(kind="heavy", N=1)
    names, cols = _table(shape, rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "probe.csv")
        write_columns(path, config, names, cols)  # warm-up
        best = math.inf
        for _ in range(max(3, 10 ** 6 // rows)):
            start = time.perf_counter()
            write_columns(path, config, names, cols)
            best = min(best, time.perf_counter() - start)
    return 1e6 * best / rows


def main() -> None:
    if len(sys.argv) == 3:
        shape, rows = sys.argv[1], int(sys.argv[2])
        print("%-8s %9d rows: %6.3f us/row" % (shape, rows, _time_one(shape, rows)))
        return
    for shape in SHAPES:
        for rows in ROWS:
            subprocess.run([sys.executable, __file__, shape, str(rows)], check=True)


if __name__ == "__main__":
    main()
