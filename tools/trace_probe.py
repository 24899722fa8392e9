"""Print the cost of an exact leaf trace, per visit, and the share of its
floats that the batch kernel proves, and the cost of an exact-only heavy
run, per step, with its peak memory.

For each of ALPHAS (the README's admissible alphas and one with large
coefficients), in one interpreter:
- ray: ``trace_ray(0, alpha, N, policy="exact")``;
- backward: ``trace_leaf_through((1 + a)/2, 0, alpha, N - 1,
  direction=-1, policy="exact")``;
each at N = 2,000 and 100,000 visits, in microseconds per visit: the
median and the best over the alphas of each alpha's best of RUNS runs
(one run at 100,000).  Last it prints how many of the traced points
``exactreal._surd_floats`` proved, counting the points it hands to
``_surd_float``; a tree without that kernel prints that instead.
Then, for each of ALPHAS, ``harness.run`` of an exact-only ``heavy`` at
50,000 and 10^6 steps, in microseconds per step as above and the worst
over the alphas (the last walks on Python ints past 10^5 steps), and the
largest tracemalloc peak of one more run of each over the alphas.
tools/check.sh runs it at a commit and in the checkout, for information.
Usage: PYTHONPATH=SRC python3 tools/trace_probe.py
"""

import statistics
import time
import tracemalloc

ALPHAS = ("[0;5,(6)]", "[0;7,10,(8,12)]", "[0;21,(30,28,26)]")
RUNS = 5


def _best(call, runs: int) -> float:
    """The least wall time of runs calls, in seconds."""
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def heavy_probe() -> None:
    """Print an exact-only heavy run's us per step and tracemalloc peak."""
    from rotn.harness import ExperimentConfig, run

    def heavy(alpha, N):
        return lambda: run(ExperimentConfig(kind="heavy", alpha=alpha, N=N,
                                            precision="exact-only"))

    heavy(ALPHAS[0], 100)()  # warm-up: imports
    for N, runs in ((50_000, RUNS), (10 ** 6, 1)):
        per_step = [1e6 * _best(heavy(a, N), runs) / N for a in ALPHAS]
        peaks = []
        for a in ALPHAS:
            tracemalloc.start()
            try:
                heavy(a, N)()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        print("heavy    %7d steps   median %6.3f  best %6.3f  worst %6.3f us/step  "
              "(%d alphas)  peak %.2f MB" % (N, statistics.median(per_step), min(per_step),
                                             max(per_step), len(ALPHAS), max(peaks) / 2 ** 20))


def main() -> None:
    import rotn.exactreal as exactreal
    from rotn.exactreal import parse_cf
    from rotn.foliation import trace_leaf_through, trace_ray

    kinds = {
        "ray": lambda a, N: trace_ray(0, a, N, policy="exact"),
        "backward": lambda a, N: trace_leaf_through((1 + a) / 2, 0, a, N - 1, direction=-1,
                                                    policy="exact"),
    }
    values = [parse_cf(text).value for text in ALPHAS]
    kinds["ray"](values[0], 100)  # warm-up: imports
    for N, runs in ((2000, RUNS), (100_000, 1)):
        for name, trace in kinds.items():
            per_visit = [1e6 * _best(lambda: trace(a, N), runs) / N for a in values]
            print("%-8s %6d visits  median %6.3f  best %6.3f us/visit  (%d alphas)"
                  % (name, N, statistics.median(per_visit), min(per_visit), len(values)))
    if not hasattr(exactreal, "_surd_floats"):
        print("decided  no batch float kernel (exactreal._surd_floats) in this tree")
    else:
        decided(exactreal, kinds, values)
    heavy_probe()


def decided(exactreal, kinds, values) -> None:
    """Print the share of the traced points' floats the batch kernel proved."""
    scalar, calls = exactreal._surd_float, []

    def counted(p, q, r, d):
        calls.append(1)
        return scalar(p, q, r, d)

    exactreal._surd_float = counted
    try:
        points = 0
        for a in values:
            for trace in kinds.values():
                points += trace(a, 100_000).visits
    finally:
        exactreal._surd_float = scalar
    print("decided  %.4f%% of %d trace points by the lemma (%d took _surd_float)"
          % (100 * (1 - len(calls) / points), points, len(calls)))


if __name__ == "__main__":
    main()
