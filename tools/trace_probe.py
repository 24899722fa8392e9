"""Print the cost of an exact leaf trace, per visit, and the share of its
floats that the batch kernel proves.

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
tools/check.sh runs it at a commit and in the checkout, for information.
Usage: PYTHONPATH=SRC python3 tools/trace_probe.py
"""

import statistics
import time

ALPHAS = ("[0;5,(6)]", "[0;7,10,(8,12)]", "[0;21,(30,28,26)]")
RUNS = 5


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
            per_visit = []
            for a in values:
                best = float("inf")
                for _ in range(runs):
                    start = time.perf_counter()
                    trace(a, N)
                    best = min(best, time.perf_counter() - start)
                per_visit.append(1e6 * best / N)
            print("%-8s %6d visits  median %6.3f  best %6.3f us/visit  (%d alphas)"
                  % (name, N, statistics.median(per_visit), min(per_visit), len(values)))
    if not hasattr(exactreal, "_surd_floats"):
        print("decided  no batch float kernel (exactreal._surd_floats) in this tree")
        return
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
