"""Print the microseconds per row of the CSV writer of `rotn --out`, at REF and here.

Six table shapes, each at 25,000 and 10^6 rows:
- heavy: a range of indices, float64 positions and int64 sums;
- leaf: a backward range of indices, float64 entry points and int64 levels;
- heavy-scan and leaf-scan: the same, with the positions and sums of a
  certified scan of [0;(2)] from 1/2, forward and backward, in place of
  random ones; real positions include 0.5 and short decimals, which the
  numeric writer hands to float.__repr__;
- rows: heavy-scan's cells as the benchmark's writer probe gives them
  (rotnbench/layers.py), (int, np.float64, int) rows through
  harness.write_csv, the row form;
- density: one list per column, of ints, ints, ints or None, and floats
  with a NaN, as density's horizon rows are (density writes at most 9).
Every other shape goes through harness.write_columns.  The values are
seeded, so each run writes the same tables.  Each table is timed in a
fresh interpreter: one warm-up write, then max(3, 10^6 // rows) writes
to a temporary file (40 at 25,000 rows).  It prints the best write, as a
shared host's load swings single writes by half, the median write, and
the minor page faults per write (ru_minflt of that interpreter over the
timed writes, divided by their count).

With REF_SRC, the src directory of another checkout (tools/check.sh
passes a git archive of commit REF's), each table is timed from REF_SRC
and from this checkout's src, one after the other, the side that goes
first alternating from table to table, so a change of the host's speed
reaches both sides alike; the last column is this checkout's best over
REF's.
Usage: python3 tools/writer_probe.py [REF_SRC]
"""

import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

SHAPES = ("heavy", "leaf", "heavy-scan", "leaf-scan", "rows", "density")
ROWS = (25_000, 10 ** 6)
HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _table(shape: str, rows: int):
    import numpy as np

    if shape.endswith("-scan") or shape == "rows":
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
    from rotn.harness import ExperimentConfig, write_columns, write_csv

    config = ExperimentConfig(kind="heavy", N=1)
    names, cols = _table(shape, rows)
    if shape == "rows":
        positions, sums = cols[1], cols[2]

        def write(path):
            write_csv(path, config, names,
                      ((n, positions[n], int(sums[n])) for n in range(rows)))
    else:
        def write(path):
            write_columns(path, config, names, cols)
    times = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "probe.csv")
        write(path)  # warm-up
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(max(3, 10 ** 6 // rows)):
            start = time.perf_counter()
            write(path)
            times.append(time.perf_counter() - start)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return (1e6 * min(times) / rows, 1e6 * statistics.median(times) / rows,
            faults / len(times))


def _side(src: str, shape: str, rows: int):
    """_time_one of a table in a fresh interpreter that imports rotn from src."""
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, __file__, shape, str(rows)], env=env,
                         check=True, capture_output=True, text=True).stdout
    return tuple(map(float, out.split()))


def main() -> None:
    if len(sys.argv) == 3:  # one side of one table, for _side
        print("%r %r %r" % _time_one(sys.argv[1], int(sys.argv[2])))
        return
    ref = sys.argv[1] if len(sys.argv) == 2 else None
    sides = [HERE] if ref is None else [ref, HERE]
    cell = "%6.3f %6.3f %8.1f"
    print("%-10s %9s" % ("shape", "rows")
          + "".join("  %-22s" % (side + " best median faults")
                    for side in (["here"] if ref is None else ["REF", "here"]))
          + ("" if ref is None else "  here/REF"))
    tables = [(shape, rows) for shape in SHAPES for rows in ROWS]
    for turn, (shape, rows) in enumerate(tables):
        timed = {src: _side(src, shape, rows) for src in (sides if turn % 2 == 0 else sides[::-1])}
        line = "%-10s %9d" % (shape, rows) + "".join("  " + cell % timed[s] for s in sides)
        if ref is not None:
            line += "  %8.3f" % (timed[HERE][0] / timed[ref][0])
        print(line, flush=True)


if __name__ == "__main__":
    main()
