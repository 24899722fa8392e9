"""Command-line front end: `rotn <experiment> [options]`.

Each subcommand builds an ExperimentConfig, runs it, and prints the
report as JSON (to stdout, or a one-line status when --out captures the
full output).  The process exits 0 only if every internal check of the
run passed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields

from .harness import PRECISIONS, ExperimentConfig, json_text, run

_EXAMPLES = """\
examples:
  rotn tower --alpha "[0;5,(6)]" --depth 40 --out tower.json
  rotn density --alpha "[0;5,(6)]" --m 0 --k 0 --N 1000000 --out gaps.csv
  rotn example --m 2 --kmax 10 --N 1000000
  rotn leaf --ray 0 --N 100000
  rotn leaf --through "(1+a)/2" --level 0 --backward --N 100000
  rotn heavy --alpha "[0;(2)]" --N 1000000
  rotn oracle --alpha "[0;5,(6)]" --depth 4 --samples 100
"""


# parse_args keeps no state on the parser, so one parser serves every
# main() call of a process; building it costs about 1.4 ms
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write the full report here (JSON or CSV by experiment)")
    # tower and oracle are exact by construction and take no --precision
    scanning = argparse.ArgumentParser(add_help=False, parents=[common])
    scanning.add_argument("--precision", choices=PRECISIONS, default="certified-fast",
                          help="certified floats with exact escalation, or exact only")

    p = argparse.ArgumentParser(
        prog="rotn",
        description="experiments on sign cocycles over circle rotations",
        epilog=_EXAMPLES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="kind", required=True)

    t = sub.add_parser("tower", parents=[common],
                       help="build the renormalization tower and check every inequality")
    t.add_argument("--alpha", default="[0;5,(6)]", help="continued fraction literal")
    t.add_argument("--depth", type=int, default=20)

    d = sub.add_parser("density", parents=[scanning],
                       help="gap decay of the visit positions at one level")
    d.add_argument("--alpha", default="[0;5,(6)]")
    d.add_argument("--m", type=int, default=0, help="height whose visit times are collected")
    d.add_argument("--k", type=int, default=0, help="index shift applied to the positions")
    d.add_argument("--N", type=int, default=1000000, help="orbit horizon")

    e = sub.add_parser("example", parents=[scanning],
                       help="the orbit family with forward sums capped at -1")
    e.add_argument("--m", type=int, default=2)
    e.add_argument("--kmax", type=int, default=10, dest="k_max",
                   help="how many tower levels the formulas are checked on")
    e.add_argument("--N", type=int, default=1000000, help="orbit audit horizon")

    l = sub.add_parser("leaf", parents=[scanning],
                       help="trace rectangle entries of one leaf")
    l.add_argument("--alpha", default="[0;5,(6)]")
    l.add_argument("--N", type=int, default=100000, help="number of entries")
    l.add_argument("--ray", type=int, default=None,
                   help="trace the upward ray from the singular corner of this rectangle")
    l.add_argument("--through", metavar="EXPR", default=None,
                   help='trace the leaf through this point, e.g. "(1+a)/2"')
    l.add_argument("--level", type=int, default=0,
                   help="rectangle index of the seed (with --through)")
    l.add_argument("--backward", action="store_true",
                   help="trace into the past (with --through)")

    h = sub.add_parser("heavy", parents=[scanning],
                       help="contrast family: verify S_n(1/2) stays negative")
    h.add_argument("--alpha", default="[0;(2)]")
    h.add_argument("--N", type=int, default=1000000)

    o = sub.add_parser("oracle", parents=[common],
                       help="substitution words vs simulated first returns")
    o.add_argument("--alpha", default="[0;5,(6)]")
    o.add_argument("--depth", type=int, default=4, help="highest level checked")
    o.add_argument("--samples", type=int, default=100, help="starts per case region")
    o.add_argument("--seed", type=int, default=0)

    return p


def _config(ns: argparse.Namespace) -> ExperimentConfig:
    given = {f.name: getattr(ns, f.name) for f in fields(ExperimentConfig)
             if hasattr(ns, f.name)}
    return ExperimentConfig(**given)


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        config = _config(ns)
        report = run(config)
    except (ValueError, RuntimeError, MemoryError, OSError) as err:
        print("rotn: error: %s" % (err,), file=sys.stderr)
        return 2
    ok = bool(report.get("ok", False))
    if config.out:
        print("%s: %s -> %s" % (config.kind, "ok" if ok else "FAILED", config.out))
    else:
        # one write: json.dump would stream thousands of small ones
        sys.stdout.write(json_text(report) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
