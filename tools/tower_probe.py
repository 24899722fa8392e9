"""Print the cost of a fresh renormalization tower, level by level.

For each of ALPHAS seeded admissible alphas [0;a1,(c...)] (a1 odd in
5..21, one to three period entries even in 6..30, the shape of the
benchmark's tower jobs), in one interpreter, with every alpha new to
the tower cache:
- build: ``renorm.tower(alpha, 40)``, in microseconds per level;
- verify: ``verify_bounds`` over every consecutive pair, then
  ``verify_chains``, in microseconds per level;
- json: ``harness.json_text`` of the ``rotn tower --depth 40`` report,
  which ``harness.run`` builds from the cached levels, in milliseconds.
Each line gives the median and the best over the alphas; one warm-up
alpha runs first.  tools/check.sh runs it at a commit and in the
checkout, for information.
Usage: PYTHONPATH=SRC python3 tools/tower_probe.py [ALPHAS]
"""

import random
import statistics
import sys
import time

DEPTH = 40
SEED = 3701


def _alpha(rng: random.Random) -> str:
    a1 = rng.randrange(5, 22, 2)
    period = [rng.randrange(6, 31, 2) for _ in range(rng.randint(1, 3))]
    return "[0;%d,(%s)]" % (a1, ",".join(map(str, period)))


def main() -> None:
    from rotn.exactreal import parse_cf
    from rotn.harness import ExperimentConfig, json_text, run
    from rotn.renorm import tower, verify_bounds, verify_chains

    count = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    rng = random.Random(SEED)
    seen = set()
    rows = {"build us/level": [], "verify us/level": [], "json ms/report": []}
    for i in range(count + 1):
        text = _alpha(rng)
        while str(parse_cf(text)) in seen:
            text = _alpha(rng)
        seen.add(str(parse_cf(text)))
        cf = parse_cf(text)
        start = time.perf_counter()
        levels = tower(cf, DEPTH)
        built = time.perf_counter()
        for parent, child in zip(levels, levels[1:]):
            verify_bounds(parent, child, strict=False)
        verify_chains(levels, strict=False)
        verified = time.perf_counter()
        report = run(ExperimentConfig(kind="tower", alpha=text, depth=DEPTH))
        start_json = time.perf_counter()
        json_text(report)
        done = time.perf_counter()
        if i == 0:  # warm-up
            continue
        rows["build us/level"].append(1e6 * (built - start) / DEPTH)
        rows["verify us/level"].append(1e6 * (verified - built) / DEPTH)
        rows["json ms/report"].append(1e3 * (done - start_json))
    for name, values in rows.items():
        print("%-16s median %8.2f  best %8.2f  (%d alphas, depth %d)"
              % (name, statistics.median(values), min(values), len(values), DEPTH))


if __name__ == "__main__":
    main()
