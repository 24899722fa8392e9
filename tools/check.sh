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
# (tools/options.py), and the start-up import set, the sorted modules
# that `import rotn.cli` and parse_cf("[0;5,(6)]").value add to a bare
# interpreter's.  After each step it prints the step's wall time, and
# last the whole gate's.  Timings of REF against the checkout are
# tools/bench_pairs.py's.
# Usage: tools/check.sh REF
cd "$(dirname "$0")/.." || exit 2
[ $# -eq 1 ] || { echo "usage: $0 REF" >&2; exit 2; }
status=0
begin=$(date +%s)
# runs "$@" and prints its wall time, in whole seconds
timed() {
    start=$(date +%s)
    "$@"
    rc=$?
    echo "-- $(($(date +%s) - start)) s"
    return $rc
}
step() {
    echo "== $*"
    timed "$@" || { echo "FAILED: $*"; status=1; }
}
# an info step: its title, then its command, whose failure is ignored
info() {
    echo "== $1"
    shift
    timed "$@" || true
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
info "git diff --shortstat $1 -- src/rotn tests" git diff --shortstat "$1" -- src/rotn tests
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
git archive "$1" src | tar -x -C "$tmp" || true
info "code lines at $1, in this checkout, and the difference" \
    python3 tools/code_lines.py "$tmp/src/rotn" src/rotn
info "settable options at $1" env PYTHONPATH="$tmp/src" python3 tools/options.py
info "settable options in this checkout" env PYTHONPATH=src python3 tools/options.py
info "start-up imports at $1" startup_imports "$tmp/src"
info "start-up imports in this checkout" startup_imports src
echo "== check.sh took $(($(date +%s) - begin)) s"
exit $status
