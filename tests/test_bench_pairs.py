"""tools/bench_pairs.py: each run's own peak memory, the summary of the
pairs, and the layer rows, each run on its own side's rotn."""

import hashlib
import importlib
import json
import shutil
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
hopped, usage = bench_pairs.launch(child, capture_output=True, text=True, check=True)
print(int(direct.stdout) // 1024, int(hopped.stdout) // 1024, usage["peak_rss_mb"])
"""


def test_a_launched_run_does_not_inherit_the_launchers_peak():
    done = subprocess.run([sys.executable, "-c", _HOLDER, str(TOOLS)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    direct_mb, hopped_mb, waited_mb = map(float, done.stdout.split())
    assert direct_mb >= 200  # the inheritance the helper avoids happens here
    assert hopped_mb < 100 and waited_mb < 100


def _run(wall_s, tower_s, queries_s, speed_factor=1.0):
    """A results file cut down to what the summary reads; rotnbench scales
    each job's raw_s by the run's speed factor into s."""
    jobs = ([{"kind": "tower", "raw_s": t, "traced": False} for t in tower_s]
            + [{"kind": "queries", "raw_s": t, "traced": False} for t in queries_s]
            # a traced job's time carries the tracer's cost and is left out
            + [{"kind": "tower", "raw_s": 9.0, "traced": True}])
    for job in jobs:
        job["s"] = job["raw_s"] * speed_factor
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


def test_the_summary_gives_each_job_kinds_scaled_median(monkeypatch):
    # the change ran on a slower spell of the host: its raw times are
    # longer, but scaled by the speed factor they are shorter
    monkeypatch.syspath_prepend(str(TOOLS))
    bench_pairs = importlib.import_module("bench_pairs")
    pairs = [{"workload": "exact_walk", "trace": 0,
              "parent": _run(1.0, [0.010, 0.012], [0.004], speed_factor=1.0),
              "change": _run(1.0, [0.014, 0.016], [0.005], speed_factor=0.6)}
             for _ in range(3)]
    summary = bench_pairs._summary(pairs, {"wall_s": "lower"})["exact_walk"]
    raw, scaled = summary["raw_s_by_kind"]["tower"], summary["s_by_kind"]["tower"]
    assert raw["median_change"] == pytest.approx(0.015 / 0.011 - 1)
    assert raw["change_wins"] == "0/3"
    assert scaled["parent"]["median"] == pytest.approx(0.011)
    assert scaled["change"]["median"] == pytest.approx(0.009)
    assert scaled["change_wins"] == "3/3"
    assert scaled["median_change"] == pytest.approx(0.009 / 0.011 - 1)
    assert summary["s_by_kind"]["queries"]["change"]["median"] == pytest.approx(0.003)


def test_the_summary_gives_each_workloads_cpu_time(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    bench_pairs = importlib.import_module("bench_pairs")
    pairs = [{"workload": "exact_walk", "trace": 0, "cpu_s": {"parent": p, "change": c},
              "parent": _run(1.0, [0.01], [0.01]), "change": _run(1.0, [0.01], [0.01])}
             for p, c in ((20.0, 19.0), (21.0, 19.5), (22.0, 22.5))]
    cpu = bench_pairs._summary(pairs, {"wall_s": "lower"})["exact_walk"]["cpu_s"]
    assert cpu["parent"]["median"] == 21.0 and cpu["change"]["median"] == 19.5
    assert cpu["change_wins"] == "2/3"
    assert cpu["median_change"] == pytest.approx(19.5 / 21.0 - 1)
    # pairs recorded without it give no cpu_s
    del pairs[0]["cpu_s"]
    assert "cpu_s" not in bench_pairs._summary(pairs, {"wall_s": "lower"})["exact_walk"]


# a stand-in for rotnbench/run.py: spins for 0.2 s of CPU time, then writes
# the results file bench_pairs reads
_SPIN_RUN = """
import json, sys, time
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
t = time.process_time()
while time.process_time() - t < 0.2:
    pass
out = Path(".rotnbench/results/%s-seed%s-trace%s.json"
           % (args["--workload"], args["--seed"], args["--trace"]))
out.parent.mkdir(parents=True, exist_ok=True)
out.write_text(json.dumps({"metrics": {"wall_s": 0.2}}))
"""


def test_a_workload_run_records_its_own_cpu_time(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(TOOLS))
    bench_pairs = importlib.import_module("bench_pairs")
    (tmp_path / "rotnbench").mkdir()
    (tmp_path / "rotnbench" / "run.py").write_text(_SPIN_RUN)
    results, cpu_s = bench_pairs._run(tmp_path, "w", 3, 1.0, 0)
    assert results == {"metrics": {"wall_s": 0.2}}
    # the run's own spin and start-up, not the launcher's
    assert 0.2 <= cpu_s < 2.0
    (tmp_path / "rotnbench" / "run.py").write_text("import sys; sys.exit(4)")
    with pytest.raises(SystemExit, match="exited 4"):
        bench_pairs._run(tmp_path, "w", 3, 1.0, 0)


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=cwd, check=True, capture_output=True)


def test_both_sides_run_alike_apart_from_their_checkout(monkeypatch, tmp_path):
    # a working tree whose src holds a stale bytecode cache, which a git
    # archive of its own commit does not
    work = tmp_path / "work"
    (work / "src" / "rotn" / "__pycache__").mkdir(parents=True)
    (work / "src" / "rotn" / "__init__.py").write_text("")
    (work / "src" / "rotn" / "__pycache__" / "__init__.cpython-311.pyc").write_bytes(b"x")
    (work / "rotnbench").mkdir()
    (work / "rotnbench" / "run.py").write_text("")
    (work / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "rotnbench/run.py"], "run_seconds": 1,
        "end_to_end": [{"name": "wall_s", "better": "lower"}], "per_layer": []}))
    _git(work, "init", "-q")
    _git(work, "add", "src/rotn/__init__.py", "rotnbench", "BENCHMARK.json")
    _git(work, "commit", "-q", "-m", "seed")

    monkeypatch.syspath_prepend(str(TOOLS))
    bench_pairs = importlib.import_module("bench_pairs")
    monkeypatch.setattr(bench_pairs, "ROOT", work)
    runs = []

    def launch(cmd, cwd, **kwargs):
        root = Path(cwd)
        files = sorted(str(p.relative_to(root)) for p in root.rglob("*"))
        runs.append({"root": root, "files": files, "kwargs": kwargs,
                     "cmd": [str(c).replace(str(root), "ROOT") for c in cmd]})
        name = "%s-seed%s-trace%s.json" % (cmd[cmd.index("--workload") + 1],
                                           cmd[cmd.index("--seed") + 1],
                                           cmd[cmd.index("--trace") + 1])
        results = root / ".rotnbench" / "results" / name
        results.parent.mkdir(parents=True, exist_ok=True)
        results.write_text(json.dumps({
            "header": {"src_sha256": "0"}, "metrics": {"wall_s": 1.0}, "jobs": [],
            "raw_metrics": {"speed_factor": 1.0}}))
        return subprocess.CompletedProcess(cmd, 0, "", ""), {"cpu_s": 0.5 + len(runs),
                                                             "exit": 0}

    monkeypatch.setattr(bench_pairs, "launch", launch)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["HEAD", "--workload", "w", "--seeds", "1", "2",
                             "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert len(runs) == 4 and bench["summary"]["w"]
    # each pair holds its runs' CPU times, in the order they ran
    assert [p["cpu_s"] for p in bench["pairs"]] == [{"parent": 1.5, "change": 2.5},
                                                    {"change": 3.5, "parent": 4.5}]
    assert bench["summary"]["w"]["cpu_s"]["parent"]["median"] == 3.0
    # the first pair runs the parent first, the second the change
    for parent, change in ((runs[0], runs[1]), (runs[3], runs[2])):
        assert parent["root"] != change["root"]
        assert work not in (parent["root"], change["root"])
        assert parent["cmd"] == change["cmd"] and parent["kwargs"] == change["kwargs"]
        assert parent["files"] == change["files"]
        assert not any("__pycache__" in f for f in change["files"])


def test_the_cli_table_records_each_runs_own_exit_peak_and_stdout(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(TOOLS))
    bench_pairs = importlib.import_module("bench_pairs")
    roots = {}
    for side in ("parent", "change"):
        roots[side] = tmp_path / side
        (roots[side] / "src").mkdir(parents=True)
    rows = [("exit 3", ("-c", "import sys; print('no'); sys.exit(3)")),
            ("allocate", ("-c", "held = bytearray(b'x') * (96 << 20); print(len(held))")),
            ("spin", ("-c", "import time\nt = time.process_time()\n"
                            "while time.process_time() - t < 0.1: pass"))]
    # the runs start from this process while it holds more than any row
    held = bytearray(b"x") * (192 << 20)
    runs = bench_pairs.run_table(rows, roots, 3, tmp_path)
    del held
    # round by round: pair i of every row before pair i + 1 of any row
    assert [(p["row"], p["first"]) for p in runs] == [
        (name, first) for first in ("parent", "change", "parent") for name, _ in rows]
    for pair in runs:
        for side in ("parent", "change"):
            run = pair[side]
            if pair["row"] == "exit 3":
                assert run["exit"] == 3 and run["peak_rss_mb"] < 64
            elif pair["row"] == "allocate":
                assert run["exit"] == 0 and 96 <= run["peak_rss_mb"] < 160
            else:  # its CPU time, the child's own, is the spin and the start-up
                assert run["exit"] == 0 and run["cpu_s"] >= 0.1
            assert run["wall_s"] > 0 and run["cpu_s"] > 0
    summary = bench_pairs._cli_summary(runs)
    assert list(summary) == ["exit 3", "allocate", "spin"]
    exits = summary["exit 3"]
    assert exits["exit"] == {"parent": [3], "change": [3]} and exits["same"]
    assert exits["stdout_sha256"]["parent"] == [hashlib.sha256(b"no\n").hexdigest()]
    assert summary["allocate"]["peak_rss_mb"]["parent"]["median"] >= 96
    assert "same" in bench_pairs._cli_lines(summary)[1]
    assert "cpu_s" in bench_pairs._cli_lines(summary)[0]
    # a row whose stdout differs between the sides is flagged
    runs[0]["change"]["stdout_sha256"] = "0"
    assert not bench_pairs._cli_summary(runs)["exit 3"]["same"]


# maps PAGES fresh pages, kept small pages, and writes one byte to each
_TOUCH = """
import mmap
PAGES = %d
m = mmap.mmap(-1, PAGES * mmap.PAGESIZE)
if hasattr(m, "madvise") and hasattr(mmap, "MADV_NOHUGEPAGE"):
    m.madvise(mmap.MADV_NOHUGEPAGE)
for i in range(0, len(m), mmap.PAGESIZE):
    m[i] = 1
"""


def test_the_cli_table_records_each_runs_minor_page_faults(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(TOOLS))
    bench_pairs = importlib.import_module("bench_pairs")
    roots = {}
    for side in ("parent", "change"):
        roots[side] = tmp_path / side
        (roots[side] / "src").mkdir(parents=True)
    pages = 8192
    rows = [("none", ("-c", "import mmap")),
            ("touch", ("-c", _TOUCH % pages))]
    runs = bench_pairs.run_table(rows, roots, 2, tmp_path)
    none, touch = runs[0::2], runs[1::2]
    # each touched page is one fault more than the bare import's, which
    # itself varies by a few faults from run to run
    for quiet, busy in zip(none, touch):
        for side in ("parent", "change"):
            extra = busy[side]["minflt"] - quiet[side]["minflt"]
            assert abs(extra - pages) < 200, extra
    summary = bench_pairs._cli_summary(runs)
    for side in ("parent", "change"):
        extra = summary["touch"]["minflt"][side]["median"] \
            - summary["none"]["minflt"][side]["median"]
        assert abs(extra - pages) < 200, extra
    assert "minflt" in bench_pairs._cli_lines(summary)[0]


def test_the_cli_table_is_the_readme_commands_and_the_import_row(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    bench_pairs = importlib.import_module("bench_pairs")
    readme = TOOLS.parent / "README.md"
    rows = bench_pairs.cli_table(readme)
    # the lines tools/out_bytes.sh runs, read its way
    block = subprocess.run(["sed", "-n", "/^## Command line/,/^## /p", str(readme)],
                           capture_output=True, text=True, check=True).stdout
    commands = [line for line in block.splitlines() if line.startswith("rotn ")]
    assert commands and [name for name, _ in rows] \
        == commands + [name for name, _ in bench_pairs.CLI_ROWS] \
        + [" ".join(map(str, row)) for row in bench_pairs.LAYER_ROWS]
    name, args = rows[0]
    assert name.startswith("rotn tower ")
    assert args == ("-m", "rotn.cli", "tower", "--alpha", "[0;5,(6)]", "--depth", "20")
    # the large rows are read as the README's are; the import row comes
    # last of the command rows, before the layer rows
    assert dict(rows)['rotn leaf --alpha "[0;5,(6)]" --through "(1+a)/2" --N 1000000'] == (
        "-m", "rotn.cli", "leaf", "--alpha", "[0;5,(6)]", "--through", "(1+a)/2",
        "--N", "1000000")
    first_layer = len(rows) - len(bench_pairs.LAYER_ROWS)
    assert rows[first_layer - 1] == ("python3 -c 'import rotn.cli'", ("-c", "import rotn.cli"))
    assert rows[first_layer] == ("writer heavy 25000",
                                 ("-c", bench_pairs._LAYER, "writer", "heavy", "25000"))


def _timed_pairs(row: str, parent: list, change: list) -> list:
    """--cli pairs of one row with the given wall times and alike runs."""
    run = {"cpu_s": 0.5, "peak_rss_mb": 10.0, "minflt": 100, "exit": 0,
           "stdout_sha256": "0"}
    return [{"row": row, "first": "parent", "parent": dict(run, wall_s=p),
             "change": dict(run, wall_s=c)} for p, c in zip(parent, change)]


def test_the_cli_table_marks_a_row_whose_move_is_noise(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    bench_pairs = importlib.import_module("bench_pairs")
    parent = [1.00, 1.10, 1.20, 1.30, 1.40]
    rows = {
        "faster": [0.50, 0.55, 0.60, 0.65, 0.70],  # 5/5, median below the IQR
        "slower": [2.0, 2.1, 2.2, 2.3, 2.4],       # 0/5: a verdict as well
        "mixed": [0.9, 1.2, 1.1, 1.5, 1.0],        # 3/5
        "four": [0.50, 0.55, 0.60, 1.35, 0.70],    # 4/5, however far the median moved
        "inside": [0.99, 1.09, 1.19, 1.29, 1.39],  # 5/5, median in the IQR
        "near": [0.90, 1.00, 1.05, 1.25, 1.20],    # 5/5, median below q1 but only 0.15 below
        "clear": [0.90, 0.95, 0.98, 1.25, 1.20],   # 5/5, median 0.22 below, IQR width 0.20
    }
    runs = [pair for name, change in rows.items()
            for pair in _timed_pairs(name, parent, change)]
    summary = bench_pairs._cli_summary(runs)
    assert {name: e["noise"] for name, e in summary.items()} == {
        "faster": False, "slower": False, "mixed": True, "four": True, "inside": True,
        "near": True, "clear": False}
    lines = bench_pairs._cli_lines(summary)
    assert "noise" in lines[0].split()
    for line, (name, e) in zip(lines[1:], summary.items()):
        assert line.endswith(name)
        assert (" noise " in line) == e["noise"]
    # ten pairs need nine wins
    assert bench_pairs._noise(list(range(10, 20)), [x - 5 for x in range(10, 18)]
                              + [99, 99])
    assert not bench_pairs._noise(list(range(10, 20)), [x - 5 for x in range(10, 19)]
                                  + [99])


def test_the_layer_rows_are_the_31_section_rows(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    bench_pairs = importlib.import_module("bench_pairs")
    names = [name for name, _ in bench_pairs.cli_table(TOOLS.parent / "README.md")]
    assert names[-31:] == [
        "writer %s %d" % (shape, rows)
        for shape in ("heavy", "leaf", "heavy-scan", "leaf-scan", "rows", "density")
        for rows in (25000, 1000000)] + [
        "writer ladder 9", "writer ladder 32", "writer ladder 128", "writer ladder 512",
        "tower 40", "queries 30 3", "trace ray 2000 5", "trace backward 2000 5",
        "trace ray 100000 1", "trace backward 100000 1", "oracle 4 5", "oracle 5 1",
        "decided 100000", "heavy 50000 5", "heavy 1000000 1", "walk 200000 5",
        "walk 1000000 1", "peak 50000", "peak 1000000"]
    assert len(bench_pairs.LAYER_ROWS) == 31


def _sides(tmp_path) -> dict:
    """Two copies of this checkout's src/rotn, one a side."""
    roots = {}
    for side in ("parent", "change"):
        roots[side] = tmp_path / side
        shutil.copytree(TOOLS.parent / "src" / "rotn", roots[side] / "src" / "rotn",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return roots


def test_each_layer_section_runs_on_its_own_sides_rotn(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(TOOLS))
    bench_pairs = importlib.import_module("bench_pairs")
    roots = _sides(tmp_path)
    # what a layer row's process runs before its section, then rotn.__file__
    where = ("where", ("-c", bench_pairs._PRELUDE + "import rotn; print(rotn.__file__)"))
    rows = [("writer", "ladder", 9), ("writer", "heavy-scan", 50), ("tower", 2),
            ("trace", "ray", 200, 1), ("trace", "backward", 200, 1), ("decided", 200),
            ("heavy", 200, 1), ("peak", 200), ("queries", 2, 1), ("walk", 200, 1),
            ("oracle", 3, 1)]
    runs = bench_pairs.run_table([where] + list(map(bench_pairs._layer_row, rows)), roots, 1,
                                 tmp_path)
    for side in ("parent", "change"):
        # rotn came from this side's copy, though bench_pairs was imported
        init = "%s\n" % (roots[side] / "src" / "rotn" / "__init__.py")
        assert runs[0][side]["stdout_sha256"] == hashlib.sha256(init.encode()).hexdigest()
    widths = {"writer": 3, "tower": 9, "trace": 3, "decided": 3, "heavy": 3, "peak": 1,
              "queries": 3, "walk": 3, "oracle": 3}
    for row, pair in zip(rows, runs[1:]):
        assert pair["row"] == " ".join(map(str, row))
        for side in ("parent", "change"):
            numbers = pair[side]["layer"]
            assert pair[side]["exit"] == 0 and "stdout_sha256" not in pair[side]
            assert len(numbers) == widths[row[0]] and all(x >= 0 for x in numbers.values())
            assert next(iter(numbers.values())) > 0 or row[0] == "decided", (row, numbers)
    # both traces' 200 visits on the three alphas
    assert runs[6]["change"]["layer"]["points"] == 1200
    summary = bench_pairs._cli_summary(runs[1:])
    assert summary["tower 2"]["judged"] == "median_build_us_per_level"
    assert set(summary["tower 2"]["layer"]["best_json_ms"]) \
        == {"parent", "change", "change_wins", "median_change"}
    assert all(e["same"] and e["noise"] in (True, False) for e in summary.values())


def test_a_layer_row_a_side_cannot_run_records_its_note_and_gets_no_verdict(
        monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(TOOLS))
    bench_pairs = importlib.import_module("bench_pairs")
    roots = _sides(tmp_path)
    # the parent's tree has no batch float kernel, nor anything else
    shutil.rmtree(roots["parent"] / "src" / "rotn")
    (roots["parent"] / "src" / "rotn").mkdir()
    (roots["parent"] / "src" / "rotn" / "__init__.py").write_text("")
    (roots["parent"] / "src" / "rotn" / "exactreal.py").write_text("")
    rows = [("decided", 200), ("peak", 200), ("writer", "ladder", 9)]
    runs = bench_pairs.run_table(list(map(bench_pairs._layer_row, rows)), roots, 2, tmp_path)
    summary = bench_pairs._cli_summary(runs)
    note = "no batch float kernel (exactreal._surd_floats) in this tree"
    decided = summary["decided 200"]
    assert decided["note"] == {"parent": [note], "change": []}
    assert decided["noise"] is None and decided["judged"] is None and "layer" not in decided
    assert decided["same"]  # both sides exited 0
    # a section that fails on one side is its note there, and the table goes on
    for name in ("peak 200", "writer ladder 9"):
        assert summary[name]["note"] == {"parent": ["exited 1"], "change": []}
        assert summary[name]["noise"] is None and not summary[name]["same"]
    assert all(isinstance(p["change"]["layer"], dict) for p in runs)
    line = bench_pairs._cli_lines(summary)[1]
    assert line.startswith("parent: " + note + "; change: -") and line.endswith("decided 200")


def test_a_layer_row_lands_in_the_bench_file_number_by_number(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(TOOLS))
    bench_pairs = importlib.import_module("bench_pairs")
    run = {"wall_s": 1.0, "cpu_s": 0.5, "peak_rss_mb": 10.0, "minflt": 100, "exit": 0}
    runs = [{"row": "trace ray 10 1", "first": "parent",
             "parent": dict(run, layer={"median_us_per_visit": p, "best_us_per_visit": 1.0}),
             "change": dict(run, layer={"median_us_per_visit": c, "best_us_per_visit": 2.0})}
            for p, c in ((3.0, 1.0), (3.1, 1.1), (3.2, 1.2), (3.3, 1.3), (3.4, 1.4))]
    doc = {"parent_commit": "0" * 40, "pairs": [],
           "cli": {"summary": bench_pairs._cli_summary(runs), "pairs": runs}}
    bench = {"end_to_end": [], "per_layer": []}
    out = tmp_path / "BENCH.json"
    bench_pairs._write(out, bench, doc)
    cli = json.loads(out.read_text())["cli"]
    entry = cli["summary"]["trace ray 10 1"]
    assert entry["judged"] == "median_us_per_visit" and entry["noise"] is False
    median = entry["layer"]["median_us_per_visit"]
    assert median["parent"] == pytest.approx({"median": 3.2, "q1": 3.1, "q3": 3.3})
    assert median["change"]["median"] == pytest.approx(1.2)
    assert median["change_wins"] == "5/5"
    assert entry["layer"]["best_us_per_visit"]["change_wins"] == "0/5"
    assert [p["change"]["layer"]["median_us_per_visit"] for p in cli["pairs"]] \
        == [1.0, 1.1, 1.2, 1.3, 1.4]


def test_the_change_digest_is_the_one_rotnbench_records(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    monkeypatch.syspath_prepend(str(TOOLS.parent / "src"))
    monkeypatch.syspath_prepend(str(TOOLS.parent / "rotnbench"))
    bench_pairs = importlib.import_module("bench_pairs")
    runner = importlib.import_module("runner")
    assert bench_pairs._src_digest() == runner._src_digest()
