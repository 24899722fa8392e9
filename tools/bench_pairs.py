#!/usr/bin/env python3
"""Run alternating parent/change benchmark pairs and record them in a BENCH file.

    tools/bench_pairs.py REF --workload W --seeds S [S ...] --out BENCH_<pr>.json
                         [--trace 0|1]
    tools/bench_pairs.py REF --cli [--pairs K] [--out BENCH_<pr>.json]

For each seed, runs ``rotnbench/run.py --workload W --seed S`` once from
commit REF and once from this checkout, the side that runs first
alternating from pair to pair, each run as long as BENCHMARK.json's
run_seconds says.  REF's ``src`` and ``rotnbench`` are
extracted with ``git archive`` into a temporary directory, as in
``tools/out_bytes.sh``; the change side is a copy of the working tree's,
committed or not, into another, with no ``__pycache__``.  So both sides
start with the same bytecode state, whatever the working tree holds, and
run with the same environment and command apart from their directory.
Both results files are copied verbatim into the BENCH file.

If the BENCH file exists and was measured against the same REF, the new
pairs are added to its own and its summary is recomputed, so one file
can collect several workloads, run one after another.  The summary gives,
per workload (``W/trace1`` for traced runs), each metric BENCHMARK.json
declares: its median and quartiles per side, how many pairs the change
won (ties count for neither side), and the relative change of the
median.  Under ``raw_s_by_kind`` it gives the same for each job kind's
median raw time per run, before rotnbench scales it by the machine's
speed factor, under ``s_by_kind`` for its median scaled time ``s``, and
under ``speed_factor`` that factor's median and quartiles per side, read
from each run's ``raw_metrics``, so a change in the code can be told
from one in the host's speed.  Under ``cpu_s`` it gives the same for
each run's CPU time, ``ru_utime + ru_stime`` from ``os.wait4``, which
the pair holds beside the results files, as ``--cli`` rows do; on Linux
it includes the fresh interpreters a run starts and waits for, such as
rotnbench's set-up probes.  Nothing under ``rotnbench/`` is changed.

With ``--cli`` it times a table of rows instead, every run a fresh
process.  The command rows are every ``rotn`` line of the README's
"Command line" block, read as ``tools/out_bytes.sh`` reads them, and the
rows of ``CLI_ROWS``: seven large runs (a tower-route and a certified
``heavy`` at 10^18 and 10^8 steps, an exact-only ``heavy`` at 10^7, a
``density`` at 10^8, a certified ``leaf --through`` and an exact-only
backward one at 10^6 and a ``tower`` of 1000 levels) and ``import
rotn.cli`` alone.  The layer rows, ``LAYER_ROWS``, time rotn's layers in
process: the writer, towers, ``fast_birkhoff`` queries, exact traces,
the batch float kernel's share, the oracle, exact-only ``heavy``, the
exact walk and its memory peak (see each section's function).  A layer
row's process imports this file without putting the checkout's ``src``
on ``sys.path``, runs its section on its own side's rotn and prints the
section's numbers as JSON, or a note where that side cannot run it.

Each row runs K pairs (default 5), taken round by round: pair i of
every row runs before pair i + 1 of any row, so a burst of load on the
host reaches one pair of many rows, not every pair of one.  The side
that runs first alternates from pair to pair.  Every run uses ``python
-B``, so that no bytecode cache is read or written, REF's side from a
git archive and the checkout's from a copy, each side with its
``--out`` files in a temporary directory of its own.  Each run records
its wall time, its CPU time ``ru_utime + ru_stime``, its ``ru_maxrss``
and ``ru_minflt``, all from ``os.wait4``, its exit status, and a command
row the sha256 of its stdout, a layer row its numbers.  CPU time is less
exposed than wall time to what else the host runs.  It prints per row
the medians and quartiles of both sides' judged number (a command row's
wall time, a layer row's first number), the change's wins, whether the
row's move is noise, the median CPU time, peak memory and minor page
faults, and whether every run of both sides exited alike, with the same
stdout for a command row, and exits 1 if one did not.  So a change whose
stdout changes by design, such as a report's new key or value, exits 1
on those rows: the table is still complete, and the change names the
rows that differ.  With ``--out``, the table goes into the BENCH file
under ``cli``, beside any workload pairs measured against the same REF.

The rule: a row's move is a result only when one side's judged number
was lower in at least 9 of 10 pairs (rounded up, so 5 of 5 at the
default) and the two medians differ by more than the width of the
parent's quartiles (q3 - q1); otherwise it is noise.  A layer row with a note on either side gets no
verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import random
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
SIDES = ("parent", "change")
NOTE = (
    "Alternating parent/change pairs on one host, the side run first alternating "
    "from pair to pair, recorded by tools/bench_pairs.py. Each entry holds both "
    "results files verbatim, headers included, as rotnbench wrote them to "
    ".rotnbench/results/. The parent ran from a git archive of parent_commit and "
    "the change from a copy of the working tree, each in its own temporary "
    "directory without bytecode caches, with the same environment and command, "
    "so neither header has a git_sha; change_src_sha256 is the digest of the "
    "change's src/rotn. summary gives each declared metric's median and "
    "quartiles (inclusive method) per side over the pairs, the change's wins "
    "(ties count for neither) and the relative change of the median; "
    "raw_s_by_kind gives the same for each job kind's median raw_s per run, "
    "the job time before rotnbench's speed factor scales it, and s_by_kind for "
    "its median s, the scaled time; speed_factor gives that factor's median "
    "and quartiles per side, from each run's raw_metrics; cpu_s, the same for each "
    "run's ru_utime + ru_stime from os.wait4, held in each pair's cpu_s."
)


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _src_digest() -> str:
    """The src_sha256 that rotnbench's results headers give this checkout's
    src/rotn, as rotnbench/runner.py computes it.  Importing runner would
    import rotn, and a layer row's process imports this file."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rotn").glob("*.py*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _extract(ref: str, into: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src", "rotnbench",
                              "BENCHMARK.json"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tf:
        tf.extractall(into, filter="data")


def _copy_working_tree(into: Path) -> None:
    """What ``_extract`` takes from a commit, from the working tree instead,
    leaving out bytecode caches."""
    for name in ("src", "rotnbench"):
        shutil.copytree(ROOT / name, into / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", into)


# rotnbench's peak_rss_mb is getrusage(RUSAGE_SELF).ru_maxrss, and on Linux a
# process inherits the high-water mark of the process that forked and exec'd
# it.  This launcher holds numpy, rotn and the BENCH file, so each run starts
# through a bare interpreter, _WAIT4's: the run then inherits that one's few MB.
# That interpreter spawns the run, waits for it with os.wait4 and writes
# "wall_s cpu_s ru_maxrss ru_minflt exit" to the file argv[1].
_WAIT4 = """\
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
status, usage = os.wait4(pid, 0)[1:]
wall = time.perf_counter() - start
with open(sys.argv[1], "w") as f:
    f.write("%r %r %d %d %d" % (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                               usage.ru_minflt, os.waitstatus_to_exitcode(status)))
"""


def launch(cmd: list, **kwargs) -> tuple:
    """subprocess.run(cmd, **kwargs), with cmd, whose cmd[0] is a path,
    started by _WAIT4's bare interpreter; returns that run's
    CompletedProcess, whose stdout and stderr are cmd's, and cmd's own
    wall_s, cpu_s (``ru_utime + ru_stime``), peak_rss_mb (``ru_maxrss``),
    minflt (``ru_minflt``) and exit status, all from os.wait4."""
    fd, report = tempfile.mkstemp(prefix="bench_pairs-", suffix=".wait4")
    os.close(fd)
    try:
        done = subprocess.run([sys.executable, "-S", "-c", _WAIT4, report, *cmd], **kwargs)
        wall, cpu, rss, minflt, status = Path(report).read_text().split()
    finally:
        os.unlink(report)
    return done, {"wall_s": float(wall), "cpu_s": float(cpu), "peak_rss_mb": int(rss) / 1024,
                  "minflt": int(minflt), "exit": int(status)}


def _rotn_row(line: str) -> tuple:
    """The --cli row of a `rotn ...` command line: its name and the
    interpreter's arguments."""
    return line, ("-m", "rotn.cli", *shlex.split(line)[1:])


# The --cli table: every `rotn ...` line of the README's "Command line"
# block, and after them these rows: the large runs, and the import alone.
# A row changes only in a change that says so in CHANGES.md.
CLI_ROWS = tuple(map(_rotn_row, (
    'rotn heavy --alpha "[0;5,(6)]" --N 1000000000000000000',
    'rotn heavy --alpha "[0;(2)]" --N 100000000',
    'rotn heavy --alpha "[0;(2)]" --precision exact-only --N 10000000',
    'rotn density --alpha "[0;5,(6)]" --m 0 --N 100000000',
    'rotn leaf --alpha "[0;5,(6)]" --through "(1+a)/2" --N 1000000',
    'rotn leaf --alpha "[0;5,(6)]" --through "(1+a)/2" --backward --precision exact-only '
    '--N 1000000',
    'rotn tower --alpha "[0;5,(6)]" --depth 1000',
))) + (("python3 -c 'import rotn.cli'", ("-c", "import rotn.cli")),)
# The layer rows, each (section, its arguments): a section is a function
# below, run in a fresh interpreter on each side's rotn.
LAYER_ROWS = tuple(
    [("writer", shape, rows) for shape in ("heavy", "leaf", "heavy-scan", "leaf-scan", "rows",
                                           "density") for rows in (25_000, 10 ** 6)]
    + [("writer", "ladder", rows) for rows in (9, 32, 128, 512)] + [("tower", 40)]
    + [("queries", 30, 3)]
    + [("trace", kind, N, runs) for N, runs in ((2000, 5), (100_000, 1))
       for kind in ("ray", "backward")]
    + [("oracle", depth, runs) for depth, runs in ((4, 5), (5, 1))]
    + [("decided", 100_000)] + [("heavy", N, runs) for N, runs in ((50_000, 5), (10 ** 6, 1))]
    + [("walk", N, runs) for N, runs in ((200_000, 5), (10 ** 6, 1))]
    + [("peak", N) for N in (50_000, 10 ** 6)])
# what a layer row's process runs, with the row as its arguments: this
# file's directory goes last on sys.path, so rotn comes from PYTHONPATH, the
# side's src
_PRELUDE = "import sys; sys.path.append(%r); import bench_pairs; " % str(TOOLS)
_LAYER = _PRELUDE + "bench_pairs.layer(sys.argv[1:])"
ALPHAS = ("[0;5,(6)]", "[0;7,10,(8,12)]", "[0;21,(30,28,26)]")
CLI_NOTE = (
    "Each row ran in fresh processes with python -B, round by round (pair i of every "
    "row before pair i + 1 of any), the side run first alternating from pair to pair, "
    "the parent from a git archive of parent_commit and the change from a copy of the "
    "working tree, each with its --out files in its own temporary directory. wall_s "
    "runs from spawn to os.wait4 in a bare launcher interpreter (python -S), cpu_s is "
    "the ru_utime + ru_stime that os.wait4 returned, peak_rss_mb its ru_maxrss, the "
    "row's own, as the launcher is smaller than any row, and minflt the ru_minflt it "
    "returned, the row's minor page faults; exit is the exit status, stdout_sha256 "
    "the digest of a command row's stdout, and layer a layer row's numbers, printed "
    "by the row in process, or its note. summary gives wall_s, cpu_s, peak_rss_mb "
    "and minflt as the workloads' summary does, the exit statuses and stdout digests "
    "each side showed, a layer row's numbers compared one by one (or its notes), "
    "judged, the number the verdict rests on (wall_s, or a layer row's first number), "
    "and noise: true when neither side's judged number was lower in at least 9 of 10 "
    "pairs (rounded up, so 5 of 5) or the two medians differ by no more than the width "
    "of the parent's quartiles (q3 - q1), null for a row with a note."
)


def _layer_row(row: tuple) -> tuple:
    """The --cli row of a layer row: its name and the interpreter's arguments."""
    return " ".join(map(str, row)), ("-c", _LAYER, *map(str, row))


def cli_table(readme: Path) -> list:
    """The --cli rows (name, interpreter arguments), in order: the README's
    commands, CLI_ROWS and the layer rows."""
    block = readme.read_text().partition("\n## Command line")[2].partition("\n## ")[0]
    return [_rotn_row(line) for line in block.splitlines()
            if line.startswith("rotn ")] + list(CLI_ROWS) + list(map(_layer_row, LAYER_ROWS))


def _cli_run(root: Path, cwd: Path, args) -> dict:
    """One fresh run of ``python -B args`` on the sources at root, in cwd."""
    done, usage = launch(
        [sys.executable, "-B", *args],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(root / "src")), check=True,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if args[:2] != ("-c", _LAYER):
        return dict(usage, stdout_sha256=hashlib.sha256(done.stdout).hexdigest())
    return dict(usage, layer=json.loads(done.stdout) if usage["exit"] == 0
                else "exited %d" % usage["exit"])


def run_table(rows, roots: dict, pairs: int, tmp: Path) -> list:
    """``pairs`` pairs of runs of each (name, args) row, one run on each of
    roots' "parent" and "change" sources, each side in an output directory
    of its own under tmp; one entry a pair, in the order they ran.  Pair i
    of every row runs before pair i + 1 of any row, and the side that runs
    first alternates from pair to pair."""
    outs = {side: tmp / (side + ".out") for side in roots}
    for out in outs.values():
        out.mkdir()
    runs = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for name, args in rows:
            pair = {"row": name, "first": order[0]}
            for side in order:
                pair[side] = _cli_run(roots[side], outs[side], args)
            runs.append(pair)
    return runs


def _cli_summary(runs: list) -> dict:
    """Per row, in table order: wall_s, cpu_s, peak_rss_mb and minflt
    compared as the workloads' metrics are, each side's exit statuses, and
    a command row's stdout digests or a layer row's numbers, compared one
    by one, or its notes; the number the row is judged on, and its noise."""
    groups = {}
    for pair in runs:
        groups.setdefault(pair["row"], []).append(pair)
    summary = {}
    for name, group in groups.items():
        entry = {key: _compare([p["parent"][key] for p in group],
                               [p["change"][key] for p in group], "lower")
                 for key in ("wall_s", "cpu_s", "peak_rss_mb", "minflt")}
        entry["exit"] = {side: sorted({p[side]["exit"] for p in group}) for side in SIDES}
        summary[name] = entry
        if "layer" not in group[0]["parent"]:
            entry["stdout_sha256"] = {side: sorted({p[side]["stdout_sha256"] for p in group})
                                      for side in SIDES}
            entry["same"] = len({(p[side]["exit"], p[side]["stdout_sha256"])
                                 for p in group for side in SIDES}) == 1
            entry["judged"], got = "wall_s", {side: [p[side] for p in group] for side in SIDES}
        else:
            entry["same"] = len({p[side]["exit"] for p in group for side in SIDES}) == 1
            got = {side: [p[side]["layer"] for p in group] for side in SIDES}
            notes = {side: sorted({g for g in got[side] if isinstance(g, str)})
                     for side in SIDES}
            if any(notes.values()):
                entry.update(note=notes, judged=None, noise=None)
                continue
            entry["layer"] = {key: _compare([g[key] for g in got["parent"]],
                                            [g[key] for g in got["change"]], "lower")
                              for key in got["parent"][0]}
            entry["judged"] = next(iter(got["parent"][0]))
        key = entry["judged"]
        entry["noise"] = _noise([g[key] for g in got["parent"]], [g[key] for g in got["change"]])
    return summary


def _noise(parent: list, change: list) -> bool:
    """Whether a row's judged number moved by no more than noise: neither
    side was lower in at least 9 of 10 pairs (rounded up, so 5 of 5), or
    the medians differ by no more than the width of the parent's
    quartiles.  A row that loses that clearly is a verdict too, a
    slowdown."""
    need = -(-9 * len(parent) // 10)
    wins = sum(c < p for c, p in zip(change, parent))
    losses = sum(c > p for c, p in zip(change, parent))
    spread = _quartiles(parent)
    return max(wins, losses) < need or abs(statistics.median(change) - spread["median"]) \
        <= spread["q3"] - spread["q1"]


def _cli_lines(summary: dict) -> list:
    """The --cli table as text, one line a row."""
    lines = ["%32s  %32s  %7s  %4s  %-5s  cpu_s parent change  peak MB parent change  "
             "minflt parent  change  stdout+exit  judged  row"
             % ("judged parent [q1, q3]", "change [q1, q3]", "change", "wins", "noise")]
    for name, e in summary.items():
        c, m, f = e["cpu_s"], e["peak_rss_mb"], e["minflt"]
        if e["judged"] is None:  # a note on one side at least: no verdict
            judged = "%-88s" % "; ".join("%s: %s" % (side, ", ".join(e["note"][side]) or "-")
                                         for side in SIDES)
        else:
            j = e["wall_s"] if e["judged"] == "wall_s" else e["layer"][e["judged"]]
            judged = "%9.4f [%9.4f, %9.4f]  %9.4f [%9.4f, %9.4f]  %+6.1f%%  %4s  %-5s" % (
                j["parent"]["median"], j["parent"]["q1"], j["parent"]["q3"],
                j["change"]["median"], j["change"]["q1"], j["change"]["q3"],
                100 * (j["median_change"] or 0), j["change_wins"],
                "noise" if e["noise"] else "-")
        lines.append("%s  %12.4f %6.4f  %14.1f %6.1f  %13d %7d  %-11s  %s  %s" % (
            judged, c["parent"]["median"], c["change"]["median"], m["parent"]["median"],
            m["change"]["median"], f["parent"]["median"], f["change"]["median"],
            "same" if e["same"] else "DIFFERS", e["judged"] or "-", name))
    return lines


def _run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One benchmark run from the checkout at root; returns its results file
    and the run's CPU time, ``ru_utime + ru_stime`` from os.wait4."""
    path = root / ".rotnbench" / "results" / ("%s-seed%d-trace%d.json"
                                              % (workload, seed, trace))
    if path.exists():
        path.unlink()
    cmd = [sys.executable, str(root / "rotnbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    done, usage = launch(cmd, cwd=root, capture_output=True, text=True)
    if usage["exit"] != 0 or not path.exists():
        raise SystemExit("bench_pairs: %s exited %d\n%s"
                         % (" ".join(cmd), usage["exit"], done.stderr[-2000:]))
    return json.loads(path.read_text()), usage["cpu_s"]


def _quartiles(values: list) -> dict:
    """The median and quartiles (inclusive method) of one side's values."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3}


def _compare(parent: list, change: list, better: str) -> dict:
    """Median and quartiles per side, the change's wins and the median's change."""
    stats = {"parent": _quartiles(parent), "change": _quartiles(change)}
    wins = sum(c < p if better == "lower" else c > p for c, p in zip(change, parent))
    base = stats["parent"]["median"]
    return {
        **stats,
        "change_wins": "%d/%d" % (wins, len(parent)),
        "median_change": (stats["change"]["median"] - base) / base if base else None,
    }


def _by_kind(run: dict, key: str) -> dict:
    """The median of one job time, raw_s or the scaled s, of each job kind in a run."""
    times = {}
    for job in run["jobs"]:
        if not job["traced"]:
            times.setdefault(job["kind"], []).append(job[key])
    return {kind: statistics.median(ts) for kind, ts in times.items()}


def _summary(pairs: list, declared: dict) -> dict:
    groups = {}
    for p in pairs:
        key = p["workload"] + ("/trace1" if p.get("trace") else "")
        groups.setdefault(key, []).append(p)
    summary = {}
    for key, group in sorted(groups.items()):
        names = sorted(set(group[0]["parent"]["metrics"]) & set(declared))
        entry = {name: _compare([p["parent"]["metrics"][name] for p in group],
                                [p["change"]["metrics"][name] for p in group],
                                declared[name])
                 for name in names}
        if all("cpu_s" in p for p in group):  # pairs recorded before it have none
            entry["cpu_s"] = _compare([p["cpu_s"]["parent"] for p in group],
                                      [p["cpu_s"]["change"] for p in group], "lower")
        for time in ("raw_s", "s"):
            runs = [{side: _by_kind(p[side], time) for side in ("parent", "change")}
                    for p in group]
            kinds = sorted(set.intersection(*(set(r[side]) for r in runs
                                              for side in ("parent", "change"))))
            if kinds:
                entry[time + "_by_kind"] = {
                    kind: _compare([r["parent"][kind] for r in runs],
                                   [r["change"][kind] for r in runs], "lower")
                    for kind in kinds}
        entry["speed_factor"] = {
            side: _quartiles([p[side]["raw_metrics"]["speed_factor"] for p in group])
            for side in ("parent", "change")}
        summary[key] = entry
    return summary


def _write(path: Path, bench: dict, doc: dict) -> None:
    """Write the BENCH file of doc: its parent_commit, its workload pairs and,
    once the --cli table has run, its ``cli`` entry."""
    pairs = doc["pairs"]
    declared = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    out = {"parent_commit": doc["parent_commit"], "change_src_sha256": _src_digest()}
    if pairs:
        out.update({
            "benchmark": "rotnbench",
            "command": " ".join(bench["command"])
                       + " --workload W --seed S --seconds %g --trace T" % bench["run_seconds"],
            "parent_src_sha256": pairs[-1]["parent"]["header"]["src_sha256"],
            "change_src_sha256": pairs[-1]["change"]["header"]["src_sha256"],
            "note": NOTE,
            "summary": _summary(pairs, declared),
        })
    # one pair per line, as in BENCH_7.json, so a diff of the file stays readable
    lines = ["{"]
    for key in ("benchmark", "command", "parent_commit", "parent_src_sha256",
                "change_src_sha256", "note", "summary"):
        if key in out:
            lines.append("%s: %s," % (json.dumps(key), json.dumps(out[key], sort_keys=True)))
    cli = doc.get("cli")
    if cli:
        lines.append('"cli": {"note": %s, "summary": %s, "pairs": ['
                     % (json.dumps(CLI_NOTE), json.dumps(cli["summary"], sort_keys=True)))
        lines.append(",\n".join(json.dumps(p, sort_keys=True) for p in cli["pairs"]))
        lines.append("]},")
    lines.append('"pairs": [')
    lines.append(",\n".join(json.dumps(p, sort_keys=True) for p in pairs))
    lines.append("]")
    lines.append("}")
    path.write_text("\n".join(lines) + "\n")


def layer(argv: list) -> None:
    """Run the layer row argv, a section and its arguments, and print its
    numbers as a JSON object, the judged one first, or its note as a JSON
    string: what a layer row's process does."""
    section, *params = argv
    print(json.dumps(globals()[section](*(int(p) if p.isdigit() else p for p in params))))


def _best(call, runs: int) -> float:
    """The least wall time of runs calls, in seconds."""
    best = math.inf
    for _ in range(runs):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _over(unit: str, values: list) -> dict:
    """The median, least and largest of values, one per alpha, in unit."""
    return {"median_" + unit: statistics.median(values), "best_" + unit: min(values),
            "worst_" + unit: max(values)}


def _table(shape: str, rows: int):
    import numpy as np

    if shape.endswith("-scan") or shape == "rows":
        from rotn.exactreal import HALF, parse_cf
        from rotn.scan import orbit_scan

        scan = orbit_scan(HALF, parse_cf("[0;(2)]").value, rows - 1,
                          direction=-1 if shape == "leaf-scan" else 1)
        if shape == "leaf-scan":
            return ["n", "x", "level"], [range(0, -rows, -1), scan.positions, scan.sums + 3]
        return ["n", "position", "S_n"], [range(rows), scan.positions, scan.sums]
    rng = np.random.default_rng(rows)
    x = rng.random(rows)
    walk = np.cumsum(rng.choice(np.array([-1, 1], dtype=np.int64), rows))
    if shape == "heavy":
        return ["n", "position", "S_n"], [range(rows), x, walk]
    if shape == "leaf":
        return ["n", "x", "level"], [range(0, -rows, -1), x, walk + 3]
    first = [3 * i if shape == "ladder" or i % 7 else None for i in range(rows)]
    gaps = x.tolist()
    if shape == "density":
        gaps[::11] = [math.nan] * len(gaps[::11])
    return (["N", "count", "first_time", "max_gap"],
            [[10 * i + 1 for i in range(rows)], walk.tolist(), first, gaps])


def writer(shape: str, rows: int) -> dict:
    """`rotn --out`'s CSV writer on a table of ROWS rows: seeded heavy and
    leaf tables (range, float64, int64), a certified scan of [0;(2)] from
    1/2 (heavy-scan, leaf-scan; its positions also reach float.__repr__),
    heavy-scan's cells as rows through write_csv (rows), and list columns
    with a None and a NaN (density) or none (ladder, at the sizes around
    harness._SPELL_ROWS).  Best and median us a row over max(3, min(2000,
    10^6 // ROWS)) writes after a warm-up, and minor faults a write."""
    from rotn.harness import ExperimentConfig, write_columns, write_csv

    config = ExperimentConfig(kind="heavy", N=1)
    names, cols = _table(shape, rows)
    positions, sums = cols[1], cols[2]

    def write(path):
        if shape != "rows":
            return write_columns(path, config, names, cols)
        write_csv(path, config, names, ((n, positions[n], int(sums[n])) for n in range(rows)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "layer.csv")
        write(path)  # warm-up
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        times = [_best(lambda: write(path), 1) for _ in range(max(3, min(2000, 10 ** 6 // rows)))]
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"best_us_per_row": 1e6 * min(times) / rows,
            "median_us_per_row": 1e6 * statistics.median(times) / rows,
            "minflt_per_write": faults / len(times)}


def _fresh(count: int):
    """count + 1 seeded admissible alphas, each new to the cache, as
    (literal, CFNumber); the first is the warm-up."""
    from rotn.exactreal import parse_cf

    rng, seen = random.Random(3701), set()
    while len(seen) <= count:
        text = "[0;%d,(%s)]" % (rng.randrange(5, 22, 2), ",".join(
            str(rng.randrange(6, 31, 2)) for _ in range(rng.randint(1, 3))))
        cf = parse_cf(text)
        if str(cf) not in seen:
            seen.add(str(cf))
            yield text, cf


def tower(count: int, depth: int = 40) -> dict:
    """COUNT seeded admissible alphas new to the cache, after a warm-up
    one: renorm.tower(alpha, 40), then verify_bounds and verify_chains, in
    us a level, and json_text of the `rotn tower` report in ms, over the
    alphas."""
    from rotn.harness import ExperimentConfig, json_text, run
    from rotn.renorm import tower as build, verify_bounds, verify_chains

    costs = []
    for text, cf in _fresh(count):
        start = time.perf_counter()
        levels = build(cf, depth)
        built = time.perf_counter()
        for parent, child in zip(levels, levels[1:]):
            verify_bounds(parent, child, strict=False)
        verify_chains(levels, strict=False)
        verified = time.perf_counter()
        report = run(ExperimentConfig(kind="tower", alpha=text, depth=depth))
        costs.append((1e6 * (built - start) / depth, 1e6 * (verified - built) / depth,
                      1e3 * _best(lambda: json_text(report), 1)))
    build_us, verify_us, json_ms = zip(*costs[1:])  # the first alpha is the warm-up
    return {**_over("build_us_per_level", build_us), **_over("verify_us_per_level", verify_us),
            **_over("json_ms", json_ms)}


def queries(count: int, runs: int, depth: int = 40) -> dict:
    """On the depth-40 towers of COUNT such alphas, after a warm-up one,
    renorm.fast_birkhoff on a fresh parse of the alpha for 300 seeded n <=
    10^15, log-uniform as the benchmark's tower_queries draws them: each
    alpha's best of RUNS batches, one a round over all the alphas, in us a
    query, over the alphas."""
    from rotn.exactreal import parse_cf
    from rotn.renorm import fast_birkhoff, tower as build

    # count + 1 towers fit the tower cache (32), so no batch rebuilds one
    rng, batches = random.Random(4501), []
    for text, cf in _fresh(count):
        build(cf, depth)
        batches.append((text, [max(1, int(10 ** rng.uniform(0, 15))) for _ in range(300)]))
    best = [math.inf] * len(batches)
    # round by round, so a burst of load on the host reaches one batch of each alpha
    for _ in range(runs):
        for i, (text, ns) in enumerate(batches):
            alpha = parse_cf(text)  # a fresh parse a batch, as tower_queries' jobs make
            best[i] = min(best[i], _best(lambda: [fast_birkhoff(alpha, n) for n in ns], 1))
    return _over("us_per_query", [1e6 * b / 300 for b in best[1:]])  # [0] is the warm-up


def _traces():
    from rotn.exactreal import parse_cf
    from rotn.foliation import trace_leaf_through, trace_ray

    return [parse_cf(text).value for text in ALPHAS], {
        "ray": lambda a, N: trace_ray(0, a, N, policy="exact"),
        "backward": lambda a, N: trace_leaf_through((1 + a) / 2, 0, a, N - 1, direction=-1,
                                                    policy="exact")}


def trace(kind: str, N: int, runs: int) -> dict:
    """Exact trace_ray(0, a, N) or, backward, trace_leaf_through((1 + a)/2,
    0, a, N - 1, direction=-1): each of ALPHAS' best of RUNS, in us a
    visit."""
    values, kinds = _traces()
    kinds[kind](values[0], 100)  # warm-up: imports
    return _over("us_per_visit", [1e6 * _best(lambda: kinds[kind](a, N), runs) / N
                                  for a in values])


def oracle(depth: int, runs: int) -> dict:
    """renorm.oracle_first_return from one seeded start in each case region
    of levels 2..DEPTH of each of ALPHAS' towers, as `rotn oracle` draws
    them: each alpha's best of RUNS passes over its starts, in us a step."""
    from rotn.exactreal import SurdReal, parse_cf
    from rotn.renorm import _case_regions, oracle_first_return, tower as build

    rng, per_step = random.Random(4703), []
    for text in ALPHAS:
        starts = []
        for level in build(parse_cf(text), depth)[1:]:
            for _, lo, hi, _ in _case_regions(level):
                # an odd multiple of 2^-53, strictly inside the region
                u = SurdReal(2 * rng.getrandbits(52) + 1, 0, 1 << 53)
                starts.append((level, level.interval.from_local(lo + (hi - lo) * u)))
        # the first pass is the warm-up, and counts the steps
        steps = sum(oracle_first_return(level, x).time for level, x in starts)
        best = _best(lambda: [oracle_first_return(level, x) for level, x in starts], runs)
        per_step.append(1e6 * best / steps)
    return _over("us_per_step", per_step)


def decided(N: int):
    """The share, in %, of both exact traces' points on ALPHAS whose floats
    fall to the scalar exactreal._surd_float, unproved by the batch kernel
    exactreal._surd_floats; the points, and those scalar calls."""
    import rotn.exactreal as exactreal

    if not hasattr(exactreal, "_surd_floats"):
        return "no batch float kernel (exactreal._surd_floats) in this tree"
    values, kinds = _traces()
    scalar, calls = exactreal._surd_float, []
    exactreal._surd_float = lambda *args: calls.append(1) or scalar(*args)
    points = sum(run(a, N).visits for a in values for run in kinds.values())
    exactreal._surd_float = scalar
    return {"scalar_pct": 100 * len(calls) / points, "points": points,
            "scalar_calls": len(calls)}


def _heavy(alpha: str, N: int):
    from rotn.harness import ExperimentConfig, run

    return lambda: run(ExperimentConfig(kind="heavy", alpha=alpha, N=N, precision="exact-only"))


def heavy(N: int, runs: int) -> dict:
    """Exact-only heavy of N steps: each of ALPHAS' best of RUNS, in us a step."""
    _heavy(ALPHAS[0], 100)()  # warm-up: imports
    return _over("us_per_step", [1e6 * _best(_heavy(a, N), runs) / N for a in ALPHAS])


def peak(N: int) -> dict:
    """The largest tracemalloc peak of exact-only heavy over ALPHAS, in MB;
    a row of its own, as tracing allocations slows the walk on
    [0;21,(30,28,26)] about 25-fold."""
    _heavy(ALPHAS[0], 100)()  # warm-up: imports
    most = 0
    for a in ALPHAS:
        tracemalloc.start()
        _heavy(a, N)()
        most = max(most, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    return {"peak_mb": most / 2 ** 20}


def walk(N: int, runs: int) -> dict:
    """orbit_scan(HALF, a, N, policy="exact"), positions and all, forward
    and backward on each of ALPHAS: the six's best of RUNS, in ns a step."""
    from rotn.exactreal import HALF, parse_cf
    from rotn.scan import orbit_scan

    values = [parse_cf(text).value for text in ALPHAS]
    orbit_scan(HALF, values[0], 100, policy="exact")  # warm-up: imports
    return _over("ns_per_step", [
        1e9 * _best(lambda: orbit_scan(HALF, a, N, direction=d, policy="exact"), runs) / N
        for a in values for d in (1, -1)])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("ref")
    p.add_argument("--workload")
    p.add_argument("--seeds", type=int, nargs="+")
    p.add_argument("--out", type=Path)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cli", action="store_true",
                   help="time the README commands and the layer rows in fresh processes "
                        "instead")
    p.add_argument("--pairs", type=int, default=5, help="--cli pairs a row")
    args = p.parse_args(argv)
    if not args.cli and None in (args.workload, args.seeds, args.out):
        p.error("--workload, --seeds and --out are required without --cli")
    if args.pairs < 1:
        p.error("--pairs must be >= 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_commit = _git("rev-parse", "--verify", args.ref + "^{commit}")
    doc = {"parent_commit": parent_commit, "pairs": []}
    if args.out is not None and args.out.exists():
        doc = json.loads(args.out.read_text())
        if doc.get("parent_commit") != parent_commit:
            raise SystemExit("bench_pairs: %s was measured against %s, not %s"
                             % (args.out, doc.get("parent_commit"), parent_commit))
        if doc.get("change_src_sha256") != _src_digest():
            raise SystemExit("bench_pairs: %s was measured on other sources than "
                             "this checkout's src/rotn" % (args.out,))

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        sides = {"parent": tmp / "parent", "change": tmp / "change"}
        _extract(parent_commit, sides["parent"])
        _copy_working_tree(sides["change"])
        if args.cli:
            runs = run_table(cli_table(ROOT / "README.md"), sides, args.pairs, tmp)
            doc["cli"] = {"summary": _cli_summary(runs), "pairs": runs}
            print("\n".join(_cli_lines(doc["cli"]["summary"])))
            if args.out is not None:
                _write(args.out, bench, doc)
            return 0 if all(e["same"] for e in doc["cli"]["summary"].values()) else 1
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"workload": args.workload, "seed": seed, "trace": args.trace,
                    "first": order[0], "cpu_s": {}}
            for side in order:
                pair[side], pair["cpu_s"][side] = _run(sides[side], args.workload, seed,
                                                       bench["run_seconds"], args.trace)
            doc["pairs"].append(pair)
            # written after every pair, so an interrupted series keeps its pairs
            _write(args.out, bench, doc)
            # traced runs report the per-layer metrics, without wall_s
            print("%s seed %d trace %d: wall_s parent %s change %s" % (
                args.workload, seed, args.trace, pair["parent"]["metrics"].get("wall_s"),
                pair["change"]["metrics"].get("wall_s")), flush=True)
    finally:
        shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
