#!/usr/bin/env python3
"""Run alternating parent/change benchmark pairs and record them in a BENCH file.

    tools/bench_pairs.py REF --workload W --seeds S [S ...] --out BENCH_<pr>.json
                         [--trace 0|1]

For each seed, runs ``rotnbench/run.py --workload W --seed S`` once from
commit REF and once from this checkout, the side that runs first
alternating from pair to pair, each run as long as BENCHMARK.json's
run_seconds says.  REF's ``src`` and ``rotnbench`` are
extracted with ``git archive`` into a temporary directory, as in
``tools/out_bytes.sh``; the change side is the working tree, committed
or not.  Both results files are copied verbatim into the BENCH file.

If the BENCH file exists and was measured against the same REF, the new
pairs are added to its own and its summary is recomputed, so one file
can collect several workloads, run one after another.  The summary gives,
per workload (``W/trace1`` for traced runs), each metric BENCHMARK.json
declares: its median and quartiles per side, how many pairs the change
won (ties count for neither side), and the relative change of the
median.  Under ``raw_s_by_kind`` it gives the same for each job kind's
median raw time per run, before rotnbench scales it by the machine's
speed factor, and under ``speed_factor`` that factor's median and
quartiles per side, read from each run's ``raw_metrics``, so a change
in the code can be told from one in the host's speed.  Nothing under
``rotnbench/`` is changed.
"""

from __future__ import annotations

import argparse
import io
import json
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
    ".rotnbench/results/. The parent ran from a git archive of parent_commit, so "
    "its header has no git_sha; the change side ran from the working tree, so its "
    "header git_sha is that of the commit below it, and change_src_sha256 is the "
    "digest of its src/rotn. summary gives each declared metric's median and "
    "quartiles (inclusive method) per side over the pairs, the change's wins "
    "(ties count for neither) and the relative change of the median; "
    "raw_s_by_kind gives the same for each job kind's median raw_s per run, "
    "the job time before rotnbench's speed factor scales it; speed_factor gives "
    "that factor's median and quartiles per side, from each run's raw_metrics."
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


# rotnbench's peak_rss_mb is getrusage(RUSAGE_SELF).ru_maxrss, and on Linux a
# process inherits the high-water mark of the process that forked and exec'd
# it.  This launcher holds numpy, rotn and the BENCH file, so each run starts
# through one small interpreter: the run then inherits that one's ~10 MB.
_HOP = [sys.executable, "-c",
        "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"]


def launch(cmd: list, **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run(cmd, **kwargs), with cmd started by a fresh interpreter."""
    return subprocess.run(_HOP + cmd, **kwargs)


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


def _raw_by_kind(run: dict) -> dict:
    """The median raw_s, unscaled by the speed factor, of each job kind in a run."""
    times = {}
    for job in run["jobs"]:
        if not job["traced"]:
            times.setdefault(job["kind"], []).append(job["raw_s"])
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
        raw = [{side: _raw_by_kind(p[side]) for side in ("parent", "change")} for p in group]
        kinds = sorted(set.intersection(*(set(r[side]) for r in raw
                                          for side in ("parent", "change"))))
        if kinds:
            entry["raw_s_by_kind"] = {
                kind: _compare([r["parent"][kind] for r in raw],
                               [r["change"][kind] for r in raw], "lower")
                for kind in kinds}
        entry["speed_factor"] = {
            side: _quartiles([p[side]["raw_metrics"]["speed_factor"] for p in group])
            for side in ("parent", "change")}
        summary[key] = entry
    return summary


def _write(path: Path, bench: dict, parent_commit: str, pairs: list) -> None:
    declared = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    out = {
        "benchmark": "rotnbench",
        "command": " ".join(bench["command"])
                   + " --workload W --seed S --seconds %g --trace T" % bench["run_seconds"],
        "parent_commit": parent_commit,
        "parent_src_sha256": pairs[-1]["parent"]["header"]["src_sha256"],
        "change_src_sha256": pairs[-1]["change"]["header"]["src_sha256"],
        "note": NOTE,
        "summary": _summary(pairs, declared),
        "pairs": pairs,
    }
    # one pair per line, as in BENCH_7.json, so a diff of the file stays readable
    lines = ["{"]
    for key in ("benchmark", "command", "parent_commit", "parent_src_sha256",
                "change_src_sha256", "note", "summary"):
        lines.append("%s: %s," % (json.dumps(key), json.dumps(out[key], sort_keys=True)))
    lines.append('"pairs": [')
    lines.append(",\n".join(json.dumps(p, sort_keys=True) for p in pairs))
    lines.append("]")
    lines.append("}")
    path.write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("ref")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_commit = _git("rev-parse", "--verify", args.ref + "^{commit}")
    doc = {"pairs": []}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
        if doc.get("parent_commit") != parent_commit:
            raise SystemExit("bench_pairs: %s was measured against %s, not %s"
                             % (args.out, doc.get("parent_commit"), parent_commit))
        if doc.get("change_src_sha256") != _src_digest():
            raise SystemExit("bench_pairs: %s was measured on other sources than "
                             "this checkout's src/rotn" % (args.out,))

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        _extract(parent_commit, tmp)
        sides = {"parent": tmp, "change": ROOT}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"workload": args.workload, "seed": seed, "trace": args.trace,
                    "first": order[0]}
            for side in order:
                pair[side] = _run(sides[side], args.workload, seed,
                                  bench["run_seconds"], args.trace)
            doc["pairs"].append(pair)
            # written after every pair, so an interrupted series keeps its pairs
            _write(args.out, bench, parent_commit, doc["pairs"])
            # traced runs report the per-layer metrics, without wall_s
            print("%s seed %d trace %d: wall_s parent %s change %s" % (
                args.workload, seed, args.trace, pair["parent"]["metrics"].get("wall_s"),
                pair["change"]["metrics"].get("wall_s")), flush=True)
    finally:
        shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
