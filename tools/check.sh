#!/bin/sh
# The per-change gate in one command: the tier-1 suite, each test file in
# its own process (the benchmark's own tests among them), the README
# commands' --out bytes and stdout reports against commit REF, and
# rotnbench/ and BENCHMARK.json unchanged since REF.  Runs every step,
# prints FAILED for each that fails, and exits 1 if any did.  Last it
# prints, for information only (these steps cannot fail), the size of the
# change to src/rotn and tests since REF (git diff --shortstat), and at
# REF, read from a git archive of its src/, and in this checkout: each
# src/rotn module's code lines and their total, at REF, here and the
# difference, in one table (tools/code_lines.py: not blank, not
# comment-only, not docstring), the settable options
# (tools/options.py), the start-up import set, the sorted modules that
# `import rotn.cli` and parse_cf("[0;5,(6)]").value add to a bare
# interpreter's, and tools/probe.py's rows, each measured at REF and here
# in turn in fresh interpreters: the writer's best and median microseconds
# per row and minor page faults per write on heavy-, leaf-, row- and
# density-shaped tables; fresh depth-40 towers, build and verify
# microseconds per level and the report's json_text milliseconds;
# fast_birkhoff microseconds per query on such towers; exact leaf traces,
# microseconds per visit of a ray and of a backward leaf at 2,000 and
# 100,000 visits, with the share of their floats the batch kernel proves;
# the oracle's microseconds per step from seeded starts in every case
# region of levels 2 to 4 and 2 to 5; and exact-only heavy runs, microseconds per step and tracemalloc peak
# at 50,000 and 10^6 steps.  A row timed over at most 3 calls runs in 3
# pairs and prints the median here/REF.
# Usage: tools/check.sh REF
cd "$(dirname "$0")/.." || exit 2
[ $# -eq 1 ] || { echo "usage: $0 REF" >&2; exit 2; }
status=0
step() {
    echo "== $*"
    "$@" || { echo "FAILED: $*"; status=1; }
}
# the modules a fresh `python3 -c` holds before its code runs are those of
# `python3 -c pass`
startup_imports() {
    PYTHONPATH="$1" python3 -c 'import sys
bare = set(sys.modules)
import rotn.cli
from rotn.exactreal import parse_cf
parse_cf("[0;5,(6)]").value
print(" ".join(sorted(set(sys.modules) - bare)))'
}
step env PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python3 -m pytest -q -p no:cacheprovider --continue-on-collection-errors
step tools/test_each_file.sh
step tools/out_bytes.sh "$1"
step git diff --quiet "$1" -- rotnbench BENCHMARK.json
echo "== git diff --shortstat $1 -- src/rotn tests"
git diff --shortstat "$1" -- src/rotn tests || true
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
git archive "$1" src | tar -x -C "$tmp" || true
echo "== code lines at $1, in this checkout, and the difference"
python3 tools/code_lines.py "$tmp/src/rotn" src/rotn || true
echo "== settable options at $1"
PYTHONPATH="$tmp/src" python3 tools/options.py || true
echo "== settable options in this checkout"
PYTHONPATH=src python3 tools/options.py || true
echo "== start-up imports at $1"
startup_imports "$tmp/src" || true
echo "== start-up imports in this checkout"
startup_imports src || true
echo "== probe at $1 and in this checkout, interleaved row by row"
python3 tools/probe.py "$tmp/src" || true
exit $status
