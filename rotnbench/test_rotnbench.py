"""Tests of the benchmark itself:  python -m pytest rotnbench"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "rotnbench"))

import jobs  # noqa: E402
from layers import KERNEL_N, kernel_probe  # noqa: E402
from rotn.exactreal import parse_cf  # noqa: E402
from rotn.renorm import base_level, tower  # noqa: E402
from rotn.scan import orbit_scan  # noqa: E402
from rotn.words import expand  # noqa: E402
from spans import Span, self_times  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _rounds(workload, seed, out_dir, n=3):
    stream = jobs.JobStream(workload, seed, str(out_dir))
    return [stream.next_round() for _ in range(n)]


def _alphas(workload, seed, out_dir):
    return {j.params["alpha"] for r in _rounds(workload, seed, out_dir)
            for j in r if "alpha" in j.params}


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_jobs(workload, tmp_path):
    a = _rounds(workload, 5, tmp_path)
    b = _rounds(workload, 5, tmp_path)
    assert [[(j.argv, j.params) for j in r] for r in a] == \
           [[(j.argv, j.params) for j in r] for r in b]


def test_same_seed_same_exact_digests(tmp_path):
    digests = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        first = _rounds("exact_walk", 3, tmp_path / run, n=1)[0]
        exact_files = [j for j in first if j.out]
        assert exact_files and all(j.params["exact"] for j in exact_files)
        for job in exact_files:
            assert jobs.execute(job).rc == 0
        digests.append([jobs.payload_digest(j.out) for j in exact_files])
    assert digests[0] == digests[1]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_new_seed_new_alphas(workload, tmp_path):
    assert _alphas(workload, 1, tmp_path) != _alphas(workload, 2, tmp_path)


def test_tower_alphas_are_fresh_and_admissible(tmp_path):
    for seed in range(3):
        stream = jobs.JobStream("tower_queries", seed, str(tmp_path))
        alphas = [j.params["alpha"] for _ in range(5) for j in stream.next_round()
                  if j.kind == "tower"]
        alphas.append(stream.cold_probe()[0])
        assert len(set(alphas)) == len(alphas)
        for alpha in alphas:
            base_level(parse_cf(alpha))


def test_every_generated_alpha_is_admissible(tmp_path):
    for workload in jobs.WORKLOADS:
        for alpha in _alphas(workload, 9, tmp_path):
            base_level(parse_cf(alpha))


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span(0, None, 1, "renorm", 0.0, 10.0),
        Span(1, 0, 1, "words", 1.0, 3.0),
        Span(2, 0, 1, "words", 2.0, 5.0),      # overlaps its sibling
        Span(3, 0, 1, "scan.exact", 8.0, 12.0),  # runs past its parent
        Span(4, 3, 1, "exactreal", 9.0, 9.5),
        Span(5, None, 2, "renorm", 20.0, 21.0),
    ]
    got = self_times(spans)
    # renorm: 10 - |[1,5] u [8,10]| = 4, plus 1 for the second root
    assert got == pytest.approx({"renorm": 5.0, "words": 5.0, "scan": 3.5,
                                 "exactreal": 0.5})


def test_prefix_extrema_matches_expansion():
    rng = random.Random(0)
    for alpha in ("[0;5,(6)]", "[0;7,(8,6)]"):
        for lvl in tower(parse_cf(alpha), 6):
            for word in (lvl.f_plus, lvl.f_minus):
                if word.length > 20000:
                    continue
                sums = np.cumsum(expand(word))
                for k in {1, word.length, rng.randint(1, word.length)}:
                    assert jobs.prefix_extrema(word, k) == (sums[:k].min(), sums[:k].max())


def test_kernel_probe_counts_ambiguous_indices():
    a = parse_cf("[0;5,(6)]").value
    probe = kernel_probe(a)
    scan = orbit_scan(jobs.HALF, a, KERNEL_N - 1)
    assert "python" in probe["kernels"]
    for result in probe["kernels"].values():
        assert result["ambiguous"] == scan.escalated.size


def test_checks_catch_wrong_answers():
    refs, rng = jobs.References(), random.Random(0)
    heavy = jobs._cli_job("heavy", {"alpha": "[0;5,(6)]", "N": 20000})
    out = jobs.execute(heavy)
    assert jobs.check(heavy, out, refs, rng) == 20000
    report = json.loads(out.stdout)
    report["final_sum"] += 2
    with pytest.raises(jobs.CheckFailed):
        jobs.check(heavy, jobs.Outcome(1, json.dumps(report)), refs, rng)

    ray = jobs._cli_job("leaf", {"alpha": "[0;7,(8)]", "ray": 2, "N": 20000})
    out = jobs.execute(ray)
    assert jobs.check(ray, out, refs, rng) == 20000
    report = json.loads(out.stdout)
    report["levels_visited"] = report["levels_visited"][:-1]
    with pytest.raises(jobs.CheckFailed):
        jobs.check(ray, jobs.Outcome(0, json.dumps(report)), refs, rng)

    queries = jobs.Job("queries", [], {"alpha": "[0;5,(6)]", "ns": [3, 500, 10 ** 9]})
    tower(parse_cf("[0;5,(6)]"), 40)
    out = jobs.execute(queries)
    assert jobs.check(queries, out, refs, rng) == 3
    out.answers[1] += 2
    with pytest.raises(jobs.CheckFailed):
        jobs.check(queries, out, refs, rng)


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "rotnbench" / "run.py"), "--workload", workload,
         "--seed", "4", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [(w, 0) for w in jobs.WORKLOADS]
                         + [("tower_queries", 1)])
def test_emitted_metrics_are_declared(workload, trace):
    result = _run(workload, trace)
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
           {m["name"]: m["unit"] for m in section}
    assert result["correct"] and result["attempted"] >= 1
