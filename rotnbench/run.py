"""The rotn benchmark: one seeded workload, measured end to end or traced.

    python3 rotnbench/run.py --workload scan_long --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout: rotn is imported from the
checkout's src/ directory, and nothing needs building.  The run

1. with --trace 1, runs the layer probes inside spans;
2. on tower_queries, calls fast_birkhoff once on a cold tower cache in
   a child process with a time budget;
3. runs a fixed number of rounds of the workload's seeded job mix, one
   job after another in this process (a closed loop with one client and
   no extra threads), checking every job independently; --seconds caps
   this phase; with --trace 1, traced and untraced rounds alternate to
   measure the tracing overhead;
4. between rounds, times set-up in several fresh interpreters, each
   until `import rotn.cli` and its first parse_cf(...).value are done.

The last line of stdout is one JSON object: correct, attempted, failed
and the metrics BENCHMARK.json declares for the mode.  The full record,
with a header naming the code and the machine, goes to
.rotnbench/results/ in the checkout.  The exit status is 0 when the run
completed, whatever its checks found, and 2 when it could not start.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "rotn" / "__init__.py").is_file():
        print("rotnbench: no rotn sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rotn

    if Path(rotn.__file__).resolve().parent != SRC / "rotn":
        print("rotnbench: imported rotn from %s, not %s" % (rotn.__file__, SRC),
              file=sys.stderr)
        return 2
    import runner

    return runner.run(args)


if __name__ == "__main__":
    sys.exit(main())
