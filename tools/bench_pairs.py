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
from one in the host's speed.  Nothing under ``rotnbench/`` is changed.

With ``--cli`` it times the command-line table instead: every ``rotn``
line of the README's "Command line" block, read as
``tools/out_bytes.sh`` reads them, and the rows of ``CLI_ROWS``: six
large runs (a tower-route and a certified ``heavy`` at 10^18 and 10^8
steps, an exact-only ``heavy`` at 10^7, a ``density`` at 10^8, a
``leaf --through`` at 10^6 and a ``tower`` of 1000 levels) and
``import rotn.cli`` alone.  Each
row runs K alternating pairs (default 5) of fresh processes, with
``python -B`` so that no bytecode cache is read or written, REF's side
from a git archive and the checkout's from a copy, each side with its
``--out`` files in a temporary directory of its own.  Each run records
its wall time, its ``ru_maxrss`` and ``ru_minflt`` from ``os.wait4``, its
exit status and the sha256 of its stdout.  It prints per row the medians
and quartiles of both sides' wall times, the change's wins, whether the
row's move is noise (neither side faster in at least 4 of 5 pairs, or
the change's median inside the parent's quartiles), the median
peak memory and minor page faults, and whether every run of both sides
exited alike with the same stdout,
and exits 1 if one did not.  With ``--out``, the table goes into the
BENCH file under ``cli``, beside any workload pairs measured against
the same REF.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "rotnbench"), str(ROOT / "src")]
from runner import _src_digest  # noqa: E402  the header's src_sha256 of this checkout
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
    "and quartiles per side, from each run's raw_metrics."
)


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


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
# through one small interpreter: the run then inherits that one's ~10 MB.
_HOP = [sys.executable, "-c",
        "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"]


def launch(cmd: list, **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run(cmd, **kwargs), with cmd started by a fresh interpreter."""
    return subprocess.run(_HOP + cmd, **kwargs)


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
    'rotn tower --alpha "[0;5,(6)]" --depth 1000',
))) + (("python3 -c 'import rotn.cli'", ("-c", "import rotn.cli")),)
CLI_NOTE = (
    "Each row ran in fresh processes with python -B, the side run first alternating "
    "from pair to pair, the parent from a git archive of parent_commit and the change "
    "from a copy of the working tree, each with its --out files in its own temporary "
    "directory. wall_s runs from spawn to os.wait4 in a bare launcher interpreter "
    "(python -S), peak_rss_mb is the ru_maxrss that os.wait4 returned, the row's "
    "own, as the launcher is smaller than any row, and minflt the ru_minflt it "
    "returned, the row's minor page faults; exit is the exit status and "
    "stdout_sha256 the digest of stdout. summary gives wall_s, peak_rss_mb and "
    "minflt as the workloads' summary does, the exit statuses and stdout "
    "digests each side showed, and noise: true when neither side's wall_s was "
    "lower in at least 4 of 5 pairs (rounded up) or the change's median lies "
    "inside the parent's quartiles."
)
# A --cli run starts through this launcher, which spawns the row, waits
# for it with os.wait4 and writes "wall_s ru_maxrss ru_minflt exit" to the file
# argv[1].  A process starts with the peak RSS of the one it was spawned
# from, so it is spawned from this bare interpreter, not from this script.
_WAIT4 = """\
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
status, usage = os.wait4(pid, 0)[1:]
wall = time.perf_counter() - start
with open(sys.argv[1], "w") as f:
    f.write("%r %d %d %d" % (wall, usage.ru_maxrss, usage.ru_minflt,
                            os.waitstatus_to_exitcode(status)))
"""


def cli_table(readme: Path) -> list:
    """The --cli rows (name, interpreter arguments), in order."""
    block = readme.read_text().partition("\n## Command line")[2].partition("\n## ")[0]
    return [_rotn_row(line) for line in block.splitlines()
            if line.startswith("rotn ")] + list(CLI_ROWS)


def _cli_run(root: Path, cwd: Path, args) -> dict:
    """One fresh run of ``python -B args`` on the sources at root, in cwd."""
    report = cwd.with_suffix(".wait4")
    done = subprocess.run(
        [sys.executable, "-S", "-c", _WAIT4, str(report), sys.executable, "-B", *args],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(root / "src")), check=True,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    wall, rss, minflt, status = report.read_text().split()
    return {"wall_s": float(wall), "peak_rss_mb": int(rss) / 1024, "minflt": int(minflt),
            "exit": int(status), "stdout_sha256": hashlib.sha256(done.stdout).hexdigest()}


def run_table(rows, roots: dict, pairs: int, tmp: Path) -> list:
    """``pairs`` alternating pairs of runs of each (name, args) row, one run
    on each of roots' "parent" and "change" sources, each side in an output
    directory of its own under tmp; one entry a pair."""
    outs = {side: tmp / (side + ".out") for side in roots}
    for out in outs.values():
        out.mkdir()
    runs = []
    for name, args in rows:
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"row": name, "first": order[0]}
            for side in order:
                pair[side] = _cli_run(roots[side], outs[side], args)
            runs.append(pair)
    return runs


def _cli_summary(runs: list) -> dict:
    """Per row, in table order: wall_s, peak_rss_mb and minflt compared as
    the workloads' metrics are, and each side's exit statuses and stdout
    digests."""
    groups = {}
    for pair in runs:
        groups.setdefault(pair["row"], []).append(pair)
    summary = {}
    for name, group in groups.items():
        entry = {key: _compare([p["parent"][key] for p in group],
                               [p["change"][key] for p in group], "lower")
                 for key in ("wall_s", "peak_rss_mb", "minflt")}
        for key in ("exit", "stdout_sha256"):
            entry[key] = {side: sorted({p[side][key] for p in group})
                          for side in ("parent", "change")}
        entry["same"] = len({(p[side]["exit"], p[side]["stdout_sha256"])
                             for p in group for side in ("parent", "change")}) == 1
        entry["noise"] = _noise([p["parent"]["wall_s"] for p in group],
                                [p["change"]["wall_s"] for p in group])
        summary[name] = entry
    return summary


def _noise(parent: list, change: list) -> bool:
    """Whether a row's wall time moved by no more than noise: neither side
    was faster in at least 4 of 5 pairs (rounded up), or the change's
    median lies inside the parent's quartiles.  A row that loses that
    clearly is a verdict too, a slowdown."""
    need = -(-4 * len(parent) // 5)
    wins = sum(c < p for c, p in zip(change, parent))
    losses = sum(c > p for c, p in zip(change, parent))
    spread = _quartiles(parent)
    return max(wins, losses) < need \
        or spread["q1"] <= _quartiles(change)["median"] <= spread["q3"]


def _cli_lines(summary: dict) -> list:
    """The --cli table as text, one line a row."""
    lines = ["wall_s parent [q1, q3]      change [q1, q3]     change  wins  noise  "
             "peak MB parent change  minflt parent  change  stdout+exit  row"]
    for name, e in summary.items():
        w, m, f = e["wall_s"], e["peak_rss_mb"], e["minflt"]
        lines.append("%.4f [%.4f, %.4f]  %.4f [%.4f, %.4f]  %+6.1f%%  %4s  %-5s  %7.1f %7.1f  "
                     "%13d %7d  %-11s  %s" % (
            w["parent"]["median"], w["parent"]["q1"], w["parent"]["q3"],
            w["change"]["median"], w["change"]["q1"], w["change"]["q3"],
            100 * w["median_change"], w["change_wins"], "noise" if e["noise"] else "-",
            m["parent"]["median"],
            m["change"]["median"], f["parent"]["median"], f["change"]["median"],
            "same" if e["same"] else "DIFFERS", name))
    return lines


def _run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run from the checkout at root; returns its results file."""
    path = root / ".rotnbench" / "results" / ("%s-seed%d-trace%d.json"
                                              % (workload, seed, trace))
    if path.exists():
        path.unlink()
    cmd = [sys.executable, str(root / "rotnbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    done = launch(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0 or not path.exists():
        raise SystemExit("bench_pairs: %s exited %d\n%s"
                         % (" ".join(cmd), done.returncode, done.stderr[-2000:]))
    return json.loads(path.read_text())


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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("ref")
    p.add_argument("--workload")
    p.add_argument("--seeds", type=int, nargs="+")
    p.add_argument("--out", type=Path)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cli", action="store_true",
                   help="time the README commands in fresh processes instead")
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
                    "first": order[0]}
            for side in order:
                pair[side] = _run(sides[side], args.workload, seed,
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
