"""One benchmark run: set-up, cold probe, rounds, layer probes, results.

Imported by run.py once it has found the checkout's rotn sources.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy

import jobs
import layers
import speed
from procs import cold_fast_birkhoff, cold_setup, reference_start
from rotn.scan import backend_name
from spans import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".rotnbench"

SETUP_RUNS = 7
SETUP_BUDGET = 30.0
JOB_BUDGET = 30.0
CHECK_BUDGET = 30.0
PROBE_READY_BUDGET = 30.0
PROBE_CALL_BUDGET = 2.0
# Rounds per run: a fixed amount of work, so that a faster program does
# not run more rounds and grow rotn's caches further (tower_queries adds
# fresh alphas every round).  --seconds caps the measured phase.
ROUNDS = {"scan_long": 20, "scan_to_file": 40, "exact_walk": 45, "tower_queries": 80}
# the reference loop that slows down the way each workload's jobs do
SPEED_REFERENCE = {"scan_long": "numpy", "scan_to_file": "python",
                   "exact_walk": "python", "tower_queries": "python"}
# what work_per_s counts on each workload
WORK_ITEM = {"scan_long": "steps_per_s", "scan_to_file": "rows_per_s",
             "exact_walk": "steps_per_s", "tower_queries": "queries_per_s"}
MODULES = ("cli", "harness", "exactreal", "scan", "circle", "renorm", "words",
           "foliation")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha():
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rotn").glob("*.py*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _header(args) -> dict:
    return {
        "benchmark": "rotnbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": importlib.metadata.version("sympy"),
        "backend": backend_name(),
        "kernels_loadable": sorted(layers.loadable_kernels()),
        "nproc": os.cpu_count(),
        "peak_rss_mb_source": {
            "run": "getrusage(RUSAGE_SELF) of the run process",
            "run_per_child_wait4": False,
            "setup_children_per_child_wait4": True,
        },
    }


class Ops:
    """Attempted and failed operations; a wrong answer makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def fail(self, what: str, kind: str, detail: str) -> None:
        self.failures.append({"op": what, "kind": kind, "detail": detail})

    @property
    def correct(self) -> bool:
        return not any(f["kind"] in ("check", "error") for f in self.failures)


def _guarded(ops, what, fn, seconds):
    """fn() under a time budget; (result, None) or (None, failure kind)."""
    try:
        with jobs.budget(seconds):
            return fn(), None
    except jobs.CheckFailed as exc:
        ops.fail(what, "check", str(exc))
        return None, "check"
    except jobs.OpTimeout as exc:
        ops.fail(what, "timeout", str(exc))
        return None, "timeout"
    except Exception:  # the run must go on and report it
        ops.fail(what, "error", traceback.format_exc(limit=5))
        return None, "error"


def _cold_probe(stream, refs, ops, src: str) -> dict:
    """One fast_birkhoff call on a cold tower cache, in a child with a budget."""
    alpha, n = stream.cold_probe()
    what = "cold fast_birkhoff(%s, %d)" % (alpha, n)
    ops.attempted += 1
    got = cold_fast_birkhoff(alpha, n, src, PROBE_READY_BUDGET, PROBE_CALL_BUDGET)
    if got["answer"] is None:
        kind = "timeout" if got["status"].startswith("timed out") else "error"
        ops.fail(what, kind, got["status"])
    else:
        want, _ = _guarded(ops, what, lambda: refs.half_sum(alpha, n), CHECK_BUDGET)
        if want is not None and want != got["answer"]:
            ops.fail(what, "check", "answered %d, tower gives %d" % (got["answer"], want))
    return dict(got, alpha=alpha, n=n)


def _run_rounds(args, stream, tracer, ops, records, take_setup) -> list:
    """ROUNDS rounds of the job mix, capped by --seconds; returns round stats.

    take_setup() runs between rounds, SETUP_RUNS times spread over the run,
    so that setup_s samples the shared machine at several moments.
    """
    refs = jobs.References()
    check_rng = random.Random("rotnbench:checks:%s:%d" % (args.workload, args.seed))
    rounds, repeat_done = [], False
    min_rounds = 2 if args.trace else 1
    setup_before = {j * ROUNDS[args.workload] // SETUP_RUNS for j in range(SETUP_RUNS)}
    t_start = time.perf_counter()
    while len(rounds) < ROUNDS[args.workload] and (
            len(rounds) < min_rounds or time.perf_counter() - t_start < args.seconds):
        if len(rounds) in setup_before:
            take_setup()
        traced = args.trace and len(rounds) % 2 == 0
        scale = speed.factor(SPEED_REFERENCE[args.workload])
        walls, items = [], []
        for job in stream.next_round():
            tracer.new_op()
            ops.attempted += 1
            what = " ".join(job.argv) or "fast_birkhoff x%d on %s" % (
                len(job.params["ns"]), job.params["alpha"])
            span = "cli" if job.argv else "renorm.fast_birkhoff"

            def run_job():
                with tracer.span(span) if traced else nullcontext():
                    return jobs.execute(job)

            t0 = time.perf_counter()
            outcome, failed = _guarded(ops, what, run_job, JOB_BUDGET)
            dt = time.perf_counter() - t0
            n_items = None
            if failed is None:
                n_items, failed = _guarded(
                    ops, what, lambda: jobs.check(job, outcome, refs, check_rng), CHECK_BUDGET)
            if failed is None and job.params.get("exact") and job.out and not repeat_done:
                repeat_done = True
                failed = _repeat_payload(job, ops, what)
            n_items = 0 if failed else n_items
            if job.out and os.path.exists(job.out):
                if job.params.get("exact"):
                    records["exact_digests"].append(
                        {"argv": job.with_out("-").argv, "sha256": jobs.payload_digest(job.out)})
                os.remove(job.out)
            walls.append(dt * scale)
            items.append(n_items)
            records["jobs"].append({"kind": job.kind, "s": dt * scale, "raw_s": dt,
                                    "items": n_items, "failed": failed,
                                    "traced": bool(traced)})
        refs.clear()
        work_s = sum(w for w, n in zip(walls, items) if n)
        rounds.append({"wall_s": sum(walls), "raw_wall_s": sum(walls) / scale,
                       "speed_factor": scale, "items": sum(items),
                       "work_per_s": sum(items) / work_s if work_s else None,
                       "traced": bool(traced)})
    return rounds


def _repeat_payload(job, ops, what):
    """Run an exact-only job again into another file; payloads must match."""
    again = job.out + ".again"

    def compare():
        jobs.execute(job.with_out(again))
        jobs.expect(jobs.payload_digest(again) == jobs.payload_digest(job.out),
                    "exact-only payload differs between two runs")

    _, failed = _guarded(ops, what + " (repeat)", compare, CHECK_BUDGET)
    if os.path.exists(again):
        os.remove(again)
    return failed


def _raw_metrics(rounds, job_records) -> dict:
    """The untraced time metrics before scaling by the machine's speed."""
    raw = [j["raw_s"] for j in job_records if not j["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    return {
        "wall_s": _median(r["raw_wall_s"] for r in untraced),
        "job_s.p50": statistics.median(raw),
        "job_s.p90": statistics.quantiles(raw, n=10)[8] if len(raw) > 1 else raw[0],
        "work_per_s": _median(r["work_per_s"] * r["speed_factor"] for r in untraced
                              if r["work_per_s"]),
        "speed_factor": _median(r["speed_factor"] for r in untraced),
    }


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def run(args) -> int:
    """One benchmark run; prints the result line and returns the exit status."""
    if args.workload not in jobs.WORKLOADS:
        print("rotnbench: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(jobs.WORKLOADS)), file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    tmp = OUT / ("tmp-%d" % os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        stream = jobs.JobStream(args.workload, args.seed, str(tmp))
        setups, first_alpha = [], stream.first_alpha()

        def take_setup():
            ref = reference_start(SETUP_BUDGET)
            sample = cold_setup(first_alpha, str(SRC), SETUP_BUDGET)
            sample["scaled_setup_s"] = sample["setup_s"] * speed.NOMINAL["start"] / ref
            sample["reference_start_s"] = ref
            setups.append(sample)

        # this process's own set-up, which setup_s measures in fresh ones
        jobs.parse_cf(first_alpha).value
        tracer = Tracer(bool(args.trace))
        ops = Ops()
        records = {"jobs": [], "exact_digests": []}
        layer_metrics, layer_info = {}, {}
        if args.trace:
            layer_metrics, layer_info = layers.run_probes(tracer, args.seed, str(tmp))
            ops.attempted += 1
            if not layer_info["kernels_identical"]:
                ops.fail("kernel probe", "check", "scan kernels disagree")
        probe = None
        if args.workload == "tower_queries":
            probe = _cold_probe(stream, jobs.References(), ops, str(SRC))
        rounds = _run_rounds(args, stream, tracer, ops, records, take_setup)
        while len(setups) < SETUP_RUNS:  # when --seconds cut the rounds short
            take_setup()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    untraced = [r for r in rounds if not r["traced"]]
    job_s = [j["s"] for j in records["jobs"] if not j["traced"]]
    work = _median(r["work_per_s"] for r in untraced)
    if args.trace:
        selfs = self_times(tracer.spans)
        traced_wall = _median(r["wall_s"] for r in rounds if r["traced"])
        metrics = dict(layer_metrics)
        metrics["cli.import_s"] = _median(s["import_s"] for s in setups)
        metrics["exactreal.parse_cf_s"] = _median(s["parse_s"] for s in setups)
        metrics.update({"%s.self_s" % mod: selfs.get(mod, 0.0) for mod in MODULES})
        metrics["trace.overhead_frac"] = traced_wall / _median(
            r["wall_s"] for r in untraced) - 1.0
    else:
        metrics = {
            "setup_s": _median(s["scaled_setup_s"] for s in setups),
            "wall_s": _median(r["wall_s"] for r in untraced),
            "job_s.p50": statistics.median(job_s),
            "job_s.p90": statistics.quantiles(job_s, n=10)[8] if len(job_s) > 1 else job_s[0],
            "work_per_s": work,
            "peak_rss_mb": _maxrss_mb(),
        }
    if set(metrics) != set(units):
        print("rotnbench: metrics %s do not match BENCHMARK.json %s"
              % (sorted(metrics), sorted(units)), file=sys.stderr)
        return 2

    failed = len(ops.failures)
    results = {
        "header": _header(args),
        "metrics": metrics,
        "attempted": ops.attempted,
        "failed": failed,
        "fail_frac": failed / ops.attempted,
        "correct": ops.correct,
        "failures": ops.failures,
        WORK_ITEM[args.workload]: work,
        "speed_reference": SPEED_REFERENCE[args.workload],
        "raw_metrics": dict(_raw_metrics(rounds, records["jobs"]),
                            setup_s=_median(s["setup_s"] for s in setups)),
        "job_s_samples": len(job_s),
        "rounds": rounds,
        "setups": setups,
        "cold_probe": probe,
        "layers": layer_info,
        "jobs": records["jobs"],
        "exact_digests": records["exact_digests"],
        "spans": tracer.dump(),
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(results, indent=1, sort_keys=True, default=str) + "\n")

    print("rotnbench %s seed=%d trace=%d: %d rounds, %d ops, %d failed -> %s"
          % (args.workload, args.seed, args.trace, len(rounds), ops.attempted, failed,
             path.relative_to(ROOT)))
    for f in ops.failures[:10]:
        print("  FAILED [%s] %s: %s" % (f["kind"], f["op"], f["detail"].strip()[-300:]))
    if failed > 10:
        print("  ... and %d more failures in the results file" % (failed - 10))
    for name in sorted(metrics):
        print("  %-40s %14.6g %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": ops.correct,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0

