"""The machine's current speed, from reference loops that do not use rotn.

The benchmark runs on shared 2-vCPU hosts whose speed changes with their
neighbours' load: with nothing else running in the guest and no steal
time, a fixed pure-Python loop's 20-second medians were seen to move
between 2.6 and 4.8 ms, and a numpy loop's by about 1.4x, within
minutes.  Job times are therefore scaled by nominal / measured time of
the reference loop that slows the way the workload's jobs do, timed at
the start of every round (set-up samples use a fresh interpreter that
imports stdlib modules, timed right before each one):

    scaled = measured * NOMINAL[kind] / reference_now

so a scaled second is a second at the reference speed.  The nominal
times are the loops' times on the unloaded host the benchmark was
written on; another machine only changes the scaled values by a constant
factor.  Raw times are kept in the results file.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


def python_loop() -> None:
    """Interpreter-bound work: dict updates and integer arithmetic."""
    d: dict = {}
    for i in range(20_000):
        d[i % 97] = d.get(i % 97, 0) + i * i


def numpy_loop() -> None:
    """Memory-bound work shaped like the scan kernel: frac, sign, cumsum."""
    z = np.arange(2_000_000, dtype=np.float64) * 0.6180339887498949
    z -= np.floor(z)
    np.cumsum(np.where(z < 0.5, 1, -1).astype(np.int8), dtype=np.int64)


LOOPS = {"python": python_loop, "numpy": numpy_loop}
# "start" is procs.reference_start: a fresh interpreter importing stdlib
# modules, the reference for setup_s
NOMINAL = {"python": 2.7e-3, "numpy": 30e-3, "start": 90e-3}


def factor(kind: str, repeats: int = 3) -> float:
    """NOMINAL / the median time of `repeats` runs of the reference loop."""
    loop, times = LOOPS[kind], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    return NOMINAL[kind] / statistics.median(times)
