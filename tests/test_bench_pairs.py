"""tools/bench_pairs.py: each run reports its own peak memory, not the launcher's."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# holds 256 MB of touched pages, then starts a child that prints its
# ru_maxrss (KiB on Linux) once directly and once through the launch helper
_HOLDER = """
import subprocess, sys
sys.path.insert(0, sys.argv[1])
import bench_pairs
held = bytearray(b"x") * (256 << 20)
child = [sys.executable, "-c",
         "import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"]
direct = subprocess.run(child, capture_output=True, text=True, check=True)
hopped = bench_pairs.launch(child, capture_output=True, text=True, check=True)
print(int(direct.stdout) // 1024, int(hopped.stdout) // 1024)
"""


def test_a_launched_run_does_not_inherit_the_launchers_peak():
    done = subprocess.run([sys.executable, "-c", _HOLDER, str(TOOLS)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    direct_mb, hopped_mb = map(int, done.stdout.split())
    assert direct_mb >= 200  # the inheritance the helper avoids happens here
    assert hopped_mb < 100
