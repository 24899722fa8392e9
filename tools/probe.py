"""Time rotn's layers row by row, each row in a fresh interpreter per side.

- writer SHAPE ROWS: `rotn --out`'s CSV writer on seeded heavy and leaf
  tables (range, float64, int64), on a certified scan of [0;(2)] from
  1/2 (heavy-scan, leaf-scan; its positions also reach float.__repr__),
  on heavy-scan's cells as rows through write_csv (rows), and on list
  columns with a None and a NaN (density) or none (ladder, at the sizes
  around harness._SPELL_ROWS): best and median us a row over max(3,
  min(2000, 10^6 // ROWS)) writes after a warm-up; minor faults a write.
- tower COUNT: COUNT seeded admissible alphas new to the cache, after a
  warm-up one: renorm.tower(alpha, 40), then verify_bounds and
  verify_chains, in us a level, and json_text of the `rotn tower` report
  in ms; median and best over the alphas.
- trace KIND N RUNS: exact trace_ray(0, a, N) or, backward,
  trace_leaf_through((1 + a)/2, 0, a, N - 1, direction=-1): median and
  best over ALPHAS of each one's best of RUNS, in us a visit.
- decided N: the share of both traces' points whose floats
  exactreal._surd_floats proves, the points, and the _surd_float calls.
- heavy N RUNS: exact-only heavy, us a step as trace (and the worst),
  and the largest tracemalloc peak over ALPHAS, in MB.
With REF_SRC, another checkout's src, each row runs from REF_SRC and
from this one's, the side that goes first alternating row by row, so a
change of the host's speed reaches both alike; the last column is here's
first number over REF's.  Usage: python3 tools/probe.py [REF_SRC]
"""

import ast
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

TOOLS = os.path.dirname(os.path.abspath(__file__))
HERE = os.path.join(TOOLS, os.pardir, "src")
ALPHAS = ("[0;5,(6)]", "[0;7,10,(8,12)]", "[0;21,(30,28,26)]")
SHAPES = ("heavy", "leaf", "heavy-scan", "leaf-scan", "rows", "density")
ROWS = ([("writer", shape, rows) for shape in SHAPES for rows in (25_000, 10 ** 6)]
        + [("writer", "ladder", rows) for rows in (9, 32, 128, 512)] + [("tower", 40)]
        + [("trace", kind, N, runs) for N, runs in ((2000, 5), (100_000, 1))
           for kind in ("ray", "backward")]
        + [("decided", 100_000)] + [("heavy", N, runs) for N, runs in ((50_000, 5), (10 ** 6, 1))])
# per section: what its numbers are, and how each is printed
UNITS = {"writer": ("best, median us/row; minor faults/write", "%6.3f %6.3f %8.1f"),
         "tower": ("build, verify median best us/level; json_text median best ms/report",
                   "%6.2f %6.2f  %6.2f %6.2f  %5.2f %5.2f"),
         "trace": ("median, best us/visit over ALPHAS", "%6.3f %6.3f"),
         "decided": ("% of trace points proved; points; _surd_float calls", "%8.4f %7d %4d"),
         "heavy": ("median, best, worst us/step over ALPHAS; peak MB", "%6.3f %6.3f %6.3f %6.2f")}


def _best(call, runs: int) -> float:
    """The least wall time of runs calls, in seconds."""
    best = math.inf
    for _ in range(runs):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _table(shape: str, rows: int):
    import numpy as np

    if shape.endswith("-scan") or shape == "rows":
        from rotn.exactreal import HALF, parse_cf
        from rotn.scan import orbit_scan

        scan = orbit_scan(HALF, parse_cf("[0;(2)]").value, rows - 1,
                          direction=-1 if shape == "leaf-scan" else 1)
        if shape == "leaf-scan":
            return ["n", "x", "level"], [range(0, -rows, -1), scan.positions, scan.sums + 3]
        return ["n", "position", "S_n"], [range(rows), scan.positions, scan.sums]
    rng = np.random.default_rng(rows)
    x = rng.random(rows)
    walk = np.cumsum(rng.choice(np.array([-1, 1], dtype=np.int64), rows))
    if shape == "heavy":
        return ["n", "position", "S_n"], [range(rows), x, walk]
    if shape == "leaf":
        return ["n", "x", "level"], [range(0, -rows, -1), x, walk + 3]
    first = [3 * i if shape == "ladder" or i % 7 else None for i in range(rows)]
    gaps = x.tolist()
    if shape == "density":
        gaps[::11] = [math.nan] * len(gaps[::11])
    return (["N", "count", "first_time", "max_gap"],
            [[10 * i + 1 for i in range(rows)], walk.tolist(), first, gaps])


def writer(shape: str, rows: int):
    from rotn.harness import ExperimentConfig, write_columns, write_csv

    config = ExperimentConfig(kind="heavy", N=1)
    names, cols = _table(shape, rows)
    positions, sums = cols[1], cols[2]

    def write(path):
        if shape != "rows":
            return write_columns(path, config, names, cols)
        write_csv(path, config, names, ((n, positions[n], int(sums[n])) for n in range(rows)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "probe.csv")
        write(path)  # warm-up
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        times = [_best(lambda: write(path), 1) for _ in range(max(3, min(2000, 10 ** 6 // rows)))]
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return (1e6 * min(times) / rows, 1e6 * statistics.median(times) / rows,
            faults / len(times))


def tower(count: int, depth: int = 40):
    from rotn.exactreal import parse_cf
    from rotn.harness import ExperimentConfig, json_text, run
    from rotn.renorm import tower as build, verify_bounds, verify_chains

    rng, seen, costs = random.Random(3701), set(), []
    while len(costs) <= count:
        text = "[0;%d,(%s)]" % (rng.randrange(5, 22, 2), ",".join(
            str(rng.randrange(6, 31, 2)) for _ in range(rng.randint(1, 3))))
        cf = parse_cf(text)
        if str(cf) in seen:
            continue
        seen.add(str(cf))
        start = time.perf_counter()
        levels = build(cf, depth)
        built = time.perf_counter()
        for parent, child in zip(levels, levels[1:]):
            verify_bounds(parent, child, strict=False)
        verify_chains(levels, strict=False)
        verified = time.perf_counter()
        report = run(ExperimentConfig(kind="tower", alpha=text, depth=depth))
        costs.append((1e6 * (built - start) / depth, 1e6 * (verified - built) / depth,
                      1e3 * _best(lambda: json_text(report), 1)))
    # the first alpha is the warm-up
    return tuple(f(c) for c in zip(*costs[1:]) for f in (statistics.median, min))


def _traces():
    from rotn.exactreal import parse_cf
    from rotn.foliation import trace_leaf_through, trace_ray

    return [parse_cf(text).value for text in ALPHAS], {
        "ray": lambda a, N: trace_ray(0, a, N, policy="exact"),
        "backward": lambda a, N: trace_leaf_through((1 + a) / 2, 0, a, N - 1, direction=-1,
                                                    policy="exact")}


def trace(kind: str, N: int, runs: int):
    values, kinds = _traces()
    kinds[kind](values[0], 100)  # warm-up: imports
    per_visit = [1e6 * _best(lambda: kinds[kind](a, N), runs) / N for a in values]
    return statistics.median(per_visit), min(per_visit)


def decided(N: int):
    import rotn.exactreal as exactreal

    if not hasattr(exactreal, "_surd_floats"):
        return "no batch float kernel (exactreal._surd_floats) in this tree"
    values, kinds = _traces()
    scalar, calls = exactreal._surd_float, []
    exactreal._surd_float = lambda *args: calls.append(1) or scalar(*args)
    points = sum(run(a, N).visits for a in values for run in kinds.values())
    exactreal._surd_float = scalar
    return 100 * (1 - len(calls) / points), points, len(calls)


def heavy(N: int, runs: int):
    from rotn.harness import ExperimentConfig, run

    def once(alpha, N):
        return lambda: run(ExperimentConfig(kind="heavy", alpha=alpha, N=N,
                                            precision="exact-only"))

    once(ALPHAS[0], 100)()  # warm-up: imports
    per_step = [1e6 * _best(once(a, N), runs) / N for a in ALPHAS]
    peak = 0
    for a in ALPHAS:
        tracemalloc.start()
        once(a, N)()
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    return (statistics.median(per_step), min(per_step), max(per_step), peak / 2 ** 20)


def _side(src: str, row: tuple):
    """One row's numbers, or its note, from a fresh interpreter importing rotn from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, TOOLS]))
    code = "import probe; print(repr(probe.%s%r))" % (row[0], row[1:])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return ast.literal_eval(out)


def main(ref: str | None = None, rows=ROWS) -> None:
    sides = [HERE] if ref is None else [ref, HERE]
    section = None
    for turn, row in enumerate(rows):
        if row[0] != section:
            section = row[0]
            print("== %s: %s%s" % (section, UNITS[section][0],
                                   "" if ref is None else "; at REF, here, here/REF"))
        turned = slice(None, None, -1 if turn % 2 else 1)
        got = [_side(src, row) for src in sides[turned]][turned]
        cells = [g if isinstance(g, str) else UNITS[section][1] % g for g in got]
        line = "%-25s" % " ".join(map(str, row)) + "".join("  " + c for c in cells)
        if ref is not None:  # a note, or a first number of 0 at REF, has no ratio
            there, here = got
            line += "  " + ("-" if str in map(type, got) or not there[0]
                            else "%.3f" % (here[0] / there[0]))
        print(line, flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:2])
