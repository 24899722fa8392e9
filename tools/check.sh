#!/bin/sh
# The per-change gate in one command: the tier-1 suite, each test file in
# its own process (the benchmark's own tests among them), the README
# commands' --out bytes and stdout reports against commit REF, and
# rotnbench/ and BENCHMARK.json unchanged since REF.  Runs every step,
# prints FAILED for each that fails, and exits 1 if any did.
# Usage: tools/check.sh REF
cd "$(dirname "$0")/.." || exit 2
[ $# -eq 1 ] || { echo "usage: $0 REF" >&2; exit 2; }
status=0
step() {
    echo "== $*"
    "$@" || { echo "FAILED: $*"; status=1; }
}
step env PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python3 -m pytest -q -p no:cacheprovider --continue-on-collection-errors
step tools/test_each_file.sh
step tools/out_bytes.sh "$1"
step git diff --quiet "$1" -- rotnbench BENCHMARK.json
exit $status
