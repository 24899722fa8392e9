#!/bin/sh
# Run each tests/test_*.py, and the benchmark's rotnbench/test_rotnbench.py,
# in its own pytest process, so a test that passes only after another file
# has warmed a cache shows up here.
# Exits 1 if any file fails.  Usage: tools/test_each_file.sh [pytest args]
cd "$(dirname "$0")/.." || exit 2
status=0
for f in tests/test_*.py rotnbench/test_rotnbench.py; do
    echo "== $f"
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -m pytest -q -p no:cacheprovider "$@" "$f" \
        || { echo "FAILED: $f"; status=1; }
done
exit $status
