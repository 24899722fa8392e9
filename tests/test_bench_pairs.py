"""tools/bench_pairs.py: each run's own peak memory, and the summary of the pairs."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

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


def _run(wall_s, tower_s, queries_s, speed_factor=1.0):
    """A results file cut down to what the summary reads."""
    jobs = ([{"kind": "tower", "raw_s": t, "traced": False} for t in tower_s]
            + [{"kind": "queries", "raw_s": t, "traced": False} for t in queries_s]
            # a traced job's time carries the tracer's cost and is left out
            + [{"kind": "tower", "raw_s": 9.0, "traced": True}])
    return {"metrics": {"wall_s": wall_s}, "jobs": jobs,
            "raw_metrics": {"speed_factor": speed_factor}}


def test_the_summary_gives_each_job_kinds_raw_median(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    bench_pairs = importlib.import_module("bench_pairs")
    pairs = [
        {"workload": "tower_queries", "trace": 0,
         "parent": _run(0.040, [0.012, 0.010, 0.011], [0.002, 0.003], speed_factor=0.9),
         "change": _run(0.036, [0.009, 0.008, 0.0085], [0.003, 0.002], speed_factor=0.8)},
        {"workload": "tower_queries", "trace": 0,
         "parent": _run(0.042, [0.010, 0.012], [0.0025], speed_factor=1.1),
         "change": _run(0.037, [0.008, 0.009], [0.0025], speed_factor=1.0)},
    ]
    summary = bench_pairs._summary(pairs, {"wall_s": "lower"})["tower_queries"]
    assert summary["speed_factor"] == {
        "parent": pytest.approx({"median": 1.0, "q1": 0.95, "q3": 1.05}),
        "change": pytest.approx({"median": 0.9, "q1": 0.85, "q3": 0.95})}
    assert summary["wall_s"]["change_wins"] == "2/2"
    tower, queries = summary["raw_s_by_kind"]["tower"], summary["raw_s_by_kind"]["queries"]
    assert tower["parent"]["median"] == pytest.approx(0.011)
    assert tower["change"]["median"] == pytest.approx(0.0085)
    assert tower["change_wins"] == "2/2"
    assert tower["median_change"] == pytest.approx(0.0085 / 0.011 - 1)
    assert queries["parent"]["median"] == queries["change"]["median"] == 0.0025
    assert queries["change_wins"] == "0/2" and queries["median_change"] == 0
