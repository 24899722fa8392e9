"""Experiment runner: configs, file round-trips, determinism, exit codes."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotn import harness, orbits, scan, spell, words
from rotn.circle import max_gap, visit_set
from rotn.cli import _build_parser, _config, main
from rotn.exactreal import HALF, SurdReal, escalations, parse_cf
from rotn.harness import (
    _ROWS_PER_WRITE,
    PRECISIONS,
    ExperimentConfig,
    config_from_header,
    json_text,
    parse_point,
    read_header,
    run,
    write_columns,
    write_csv,
)
from rotn.foliation import example_m_formulas
from rotn.renorm import fast_birkhoff, half_word
from rotn.scan import orbit_scan
from rotn.words import prefix_histogram

A = parse_cf("[0;5,(6)]").value


# ---------------------------------------------------------------------------
# config and seed expressions


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="juggle")
    with pytest.raises(ValueError):
        ExperimentConfig(kind="tower", precision="fast-and-loose")
    with pytest.raises(ValueError):
        ExperimentConfig(kind="density", N=-5)
    assert ExperimentConfig(kind="heavy", N=1, precision="exact-only").policy == "exact"
    # a config that cannot run is refused when it is built
    with pytest.raises(ValueError, match="need N >= 1"):
        ExperimentConfig(kind="heavy", N=0)
    with pytest.raises(ValueError, match="depth >= 2"):
        ExperimentConfig(kind="oracle", depth=1, samples=1)
    with pytest.raises(ValueError, match="samples >= 1"):
        ExperimentConfig(kind="oracle", depth=2)
    with pytest.raises(ValueError, match="bad continued fraction"):
        ExperimentConfig(kind="heavy", alpha="[0;5]", N=1)
    # the largest towers each kind may build
    assert ExperimentConfig(kind="tower", depth=1000).depth == 1000
    assert ExperimentConfig(kind="example", m=2, k_max=500).k_max == 500
    with pytest.raises(ValueError, match="above the limit of 1000"):
        ExperimentConfig(kind="tower", depth=1001)
    with pytest.raises(ValueError, match="above the limit of 500"):
        ExperimentConfig(kind="example", m=2, k_max=501)


def test_parse_point():
    assert parse_point("(1+a)/2", A) == (1 + A) / 2
    assert parse_point("sqrt(10)/6 - 1/3", A) == A
    assert parse_point("a**2", A) == A * A
    assert parse_point("-a + 1", A) == 1 - A
    assert parse_point("3/7", A) == SurdReal(3, 0, 7)
    assert parse_point("sqrt(40)", A) == SurdReal(0, 2, 1, 10)
    assert parse_point("sqrt(9) - sqrt(0)", A) == 3
    assert parse_point("a**5000", A) == A ** 5000


@pytest.mark.parametrize("expr", [
    "import os", "__import__('os')", "a.b", "2**a", "sqrt(a)", "open('x')",
    "[1,2]", "1.5", "sqrt(2)", "sqrt(-4)", "a**10001", "(a**100)**1000",
    "a**5000 * a**5000",
])
def test_parse_point_rejects(expr):
    with pytest.raises(ValueError):
        parse_point(expr, A)


# ---------------------------------------------------------------------------
# the experiments


def test_run_tower_report(tmp_path):
    out = str(tmp_path / "tower.json")
    rep = run(ExperimentConfig(kind="tower", alpha="[0;5,(6)]", depth=6, out=out))
    assert rep["ok"]
    assert len(rep["levels"]) == 6
    assert rep["levels"][1]["length_exact"] == "(-3+1*sqrt(10))/1"
    assert rep["levels"][0]["n_half"] == 2
    assert all(row["ok"] for row in rep["bounds"] + rep["chains"])
    doc = json.load(open(out))
    assert doc["report"]["ok"] is True
    cfg = config_from_header(doc["header"])
    assert cfg == ExperimentConfig(kind="tower", alpha="[0;5,(6)]", depth=6, out=out)


def test_run_density_report(tmp_path):
    out = str(tmp_path / "gaps.csv")
    rep = run(ExperimentConfig(kind="density", N=20000, out=out))
    assert rep["ok"] and rep["count"] > 1000
    gaps = [h["max_gap"] for h in rep["horizons"]]
    assert gaps == sorted(gaps, reverse=True)
    lines = open(out).read().splitlines()
    assert lines[1] == "N,count,first_time,max_gap"
    assert len(lines) == 2 + len(rep["horizons"])
    cfg = config_from_header(read_header(out))
    assert cfg.kind == "density" and cfg.N == 20000


def test_run_density_trivial_cases():
    assert run(ExperimentConfig(kind="density", N=0))["max_gap"] == 1.0
    assert run(ExperimentConfig(kind="density", m=-1, N=50))["first_time"] == 1
    empty = run(ExperimentConfig(kind="density", m=9, N=10))
    assert empty["count"] == 0 and empty["ok"]
    assert empty["horizons"][0]["max_gap"] is None


def test_density_report_is_strict_json_and_its_table_keeps_nan(tmp_path, capsys):
    # a horizon with no visit: null in the report, nan in the CSV, which
    # readers of the table parse with float()
    def refuse(name):
        raise ValueError("not strict JSON: %s" % name)

    argv = ["density", "--m", "9", "--N", "10"]
    assert main(argv) == 0
    rep = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert rep["horizons"] == [{"N": 10, "count": 0, "first_time": None, "max_gap": None}]
    out = str(tmp_path / "gaps.csv")
    assert main(argv + ["--out", out]) == 0
    assert open(out).read().splitlines()[1:] == ["N,count,first_time,max_gap", "10,0,,nan"]


def test_run_example_report(tmp_path, monkeypatch):
    out = str(tmp_path / "example.json")
    rep = run(ExperimentConfig(kind="example", m=2, k_max=4, N=5000, out=out))
    assert rep["ok"] and rep["formulas_ok"]
    assert rep["max_forward_sum"] == -1
    assert rep["symmetric_sums"] and rep["witness_prefix_ok"]
    assert rep["block_maxima"] == [-1] * 4
    assert config_from_header(read_header(out)).k_max == 4
    # witnesses of 15 and 588 letters, shorter than N: the tower route
    # (certified) and the scan route (exact-only) compare only the
    # witness's letters, and fail when its last block is flipped
    honest = orbits.letters
    for k_max in (1, 2):
        witness = example_m_formulas(2, k_max).witness
        last_block = example_m_formulas(2, k_max - 1).witness.length if k_max > 1 else 0
        for precision in ("certified-fast", "exact-only"):
            fields = dict(kind="example", m=2, k_max=k_max, N=1000, precision=precision)
            rep = run(ExperimentConfig(**fields))
            assert rep["witness_length"] == witness.length < 1000
            assert rep["witness_prefix_ok"] and rep["ok"]

            def flipped(w, n):
                got = honest(w, n)
                if w is witness:
                    got[last_block:] *= -1
                return got

            with monkeypatch.context() as patch:
                patch.setattr(orbits, "letters", flipped)
                rep = run(ExperimentConfig(**fields))
            assert not rep["witness_prefix_ok"] and rep["ok"] is False


def test_run_leaf_ray_csv(tmp_path):
    out = str(tmp_path / "leaf.csv")
    rep = run(ExperimentConfig(kind="leaf", N=400, ray=0, out=out))
    assert rep["ok"] and rep["min_level"] < 0 < rep["max_level"]
    rows = open(out).read().splitlines()[2:]
    assert len(rows) == 400
    n0, x0, l0 = rows[0].split(",")
    assert (n0, l0) == ("1", "0") and abs(float(x0) - 0.5) < 1e-12


def test_run_leaf_backward_indices(tmp_path):
    out = str(tmp_path / "back.csv")
    run(ExperimentConfig(kind="leaf", N=5, through="(1+a)/2", backward=True,
                         out=out))
    ns = [int(r.split(",")[0]) for r in open(out).read().splitlines()[2:]]
    assert ns == [0, -1, -2, -3, -4, -5]


def test_run_leaf_needs_one_seed():
    with pytest.raises(ValueError):
        run(ExperimentConfig(kind="leaf", N=10))
    with pytest.raises(ValueError):
        run(ExperimentConfig(kind="leaf", N=10, ray=0, through="(1+a)/2"))
    with pytest.raises(ValueError):
        run(ExperimentConfig(kind="leaf", N=10, ray=0, backward=True))


def test_run_heavy_contrast():
    rep = run(ExperimentConfig(kind="heavy", alpha="[0;(2)]", N=3000))
    assert rep["ok"] and rep["violations"] == 0 and rep["max_sum"] <= -1
    # an admissible alpha is not heavy: its sums cross zero
    rep2 = run(ExperimentConfig(kind="heavy", N=3000))
    assert not rep2["ok"] and rep2["violations"] > 0


# ---------------------------------------------------------------------------
# the orbit of 1/2 read off the tower, against Euclid's word and the scan


def _euclid_route(monkeypatch, **fields):
    """The report of the Euclid route (euclid.sign_word): the same run
    with no alpha admissible, so no tower is read."""
    with monkeypatch.context() as patch:
        patch.setattr(orbits, "admissible", lambda cf: False)
        return run(ExperimentConfig(**fields))


def _scanned(scan, **fields):
    """The values a heavy, density or summary leaf --ray report of fields
    reads, off scan, a certified scan of the orbit of 1/2 of at least
    N + max(k, 0) steps: a check that shares no code with either word
    route past the signs (no level_times, orbit_positions or histogram)."""
    config = ExperimentConfig(**fields)
    N = config.N
    s = scan.sums[1:N + 1]  # S_1..S_N
    if config.kind == "heavy":
        return {"violations": int(np.count_nonzero(s >= 0)), "min_sum": int(s.min()),
                "max_sum": int(s.max()), "final_sum": int(s[-1])}
    if config.kind == "leaf":  # ray entry n sits at level ray + 1 + S_n(1/2)
        levels = (config.ray + 1 + np.unique(s)).tolist()
        return {"min_level": levels[0], "max_level": levels[-1], "levels_visited": levels}
    vs = visit_set(HALF, scan.alpha, config.m, N, k=config.k, scan=scan)
    rows = []
    for h in sorted({N} | {10 ** e for e in range(2, 9) if 10 ** e < N}):
        cnt = int(np.count_nonzero(vs.times <= h))
        rows.append({"N": h, "count": cnt, "first_time": int(vs.times[0]) if cnt else None,
                     "max_gap": max_gap(vs.positions[:cnt]) if cnt else None})
    return {"count": rows[-1]["count"], "first_time": rows[-1]["first_time"],
            "max_gap": rows[-1]["max_gap"], "horizons": rows}


def _same_values(tower_rep, euclid_rep, steps, want):
    # both routes key, or scan, the same steps: only the word differs
    assert tower_rep["signs"] == "tower" and euclid_rep["signs"] == "euclid"
    assert tower_rep["prefix_agrees"] is euclid_rep["prefix_agrees"] is True
    assert tower_rep["prefix_steps_checked"] == steps
    assert {k: v for k, v in tower_rep.items() if k != "signs"} \
        == {k: v for k, v in euclid_rep.items() if k != "signs"}
    # and both equal the scan's values, max_gap bit for bit: nan == nan,
    # and 0.0 != -0.0, in this form
    assert {k: tower_rep[k] for k in want} == want
    gaps = [np.float64(h["max_gap"]).tobytes() for h in tower_rep.get("horizons", [])]
    assert gaps == [np.float64(h["max_gap"]).tobytes() for h in want.get("horizons", [])]


@pytest.mark.parametrize("N", [1, 2**16 - 1, 2**16, 2**16 + 1, 10**6])
def test_density_off_the_tower_equals_the_scan(monkeypatch, N):
    scan = orbit_scan(HALF, A, N + 3)  # N + max(k, 0) steps for every k
    for m in range(-3, 4):
        for k in (-2, 0, 3):
            fields = dict(kind="density", m=m, k=k, N=N)
            _same_values(run(ExperimentConfig(**fields)),
                         _euclid_route(monkeypatch, **fields), min(N, 2**16),
                         _scanned(scan, **fields))


@pytest.mark.parametrize("N", [1, 2**16 - 1, 2**16, 2**16 + 1, 10**6])
@pytest.mark.parametrize("alpha", ["[0;5,(6)]", "[0;7,(8,10)]", "[0;15,(20)]"])
def test_heavy_off_the_tower_equals_the_scan(monkeypatch, alpha, N):
    fields = dict(kind="heavy", alpha=alpha, N=N)
    _same_values(run(ExperimentConfig(**fields)), _euclid_route(monkeypatch, **fields),
                 min(N, 2**16), _scanned(orbit_scan(HALF, parse_cf(alpha).value, N), **fields))


def test_heavy_out_scans_every_step_once(monkeypatch, tmp_path):
    N = 2**16 + 1
    scans = []
    honest = orbits.orbit_scan

    def counted(*args, **kwargs):
        scans.append(args[2])
        return honest(*args, **kwargs)

    monkeypatch.setattr(orbits, "orbit_scan", counted)
    tower_out, euclid_out = str(tmp_path / "tower.csv"), str(tmp_path / "euclid.csv")
    rep = run(ExperimentConfig(kind="heavy", N=N, out=tower_out))
    assert scans == [N]
    _same_values(rep, _euclid_route(monkeypatch, kind="heavy", N=N, out=euclid_out), N,
                 _scanned(orbit_scan(HALF, A, N), kind="heavy", N=N))
    assert scans == [N, N]
    # the header lines differ only in the --out path they record
    assert open(tower_out, "rb").readlines()[1:] == open(euclid_out, "rb").readlines()[1:]


def test_density_expands_no_more_letters_than_the_prefix_check(monkeypatch):
    asked = []

    def counted(honest):
        def letters(w, n):
            asked.append(n)
            return honest(w, n)
        return letters

    monkeypatch.setattr(orbits, "letters", counted(orbits.letters))
    monkeypatch.setattr(words, "letters", counted(words.letters))
    for m in (-2, 0, 3):
        rep = run(ExperimentConfig(kind="density", m=m, N=10**6))
        assert rep["signs"] == "tower" and rep["prefix_agrees"] and rep["count"] > 0
    assert asked and max(asked) <= 2**16


def test_density_on_the_tower_peaks_under_25_bytes_a_visit(capsys):
    # its times and positions, 16 B a visit, and one sorted copy of the
    # positions at a time; the gaps are taken slice by slice
    assert main(["density", "--N", "1000", "--m", "2"]) == 0  # imports and tower cache
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(["density", "--N", "5000000", "--m", "2"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rep = json.loads(capsys.readouterr().out)
    assert rep["signs"] == "tower" and rep["count"] > 250_000
    assert peak < 25 * rep["count"], peak / rep["count"]


def test_density_on_the_tower_peaks_under_22_bytes_a_visit(capsys):
    # its times and positions, 16 B a visit; no sorted copy of the positions:
    # the gaps' buckets take 1/4 B or less a visit, and what is left is
    # chunk- or slice-sized
    assert main(["density", "--N", "1000", "--m", "2"]) == 0  # imports and tower cache
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(["density", "--N", "5000000", "--m", "2"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rep = json.loads(capsys.readouterr().out)
    assert rep["signs"] == "tower" and rep["count"] > 250_000
    assert peak < 22 * rep["count"], peak / rep["count"]


@pytest.mark.parametrize("out", [True, False], ids=["out", "summary"])
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("through, backward", [("1000*a", True), ("0-1000*a", False)])
def test_leaf_past_256_visits_into_the_corner_is_refused_at_either_precision(
        tmp_path, capsys, precision, through, backward, out):
    # the corner's turn is visit 999, past the 256 the other precision
    # retraces; a summary reads no trace of it, and refuses it all the same
    path = tmp_path / "leaf.csv"
    argv = ["leaf", "--alpha", "[0;5,(6)]", "--through", through, "--level", "0",
            "--N", "2000", "--precision", precision] + ["--out", str(path)] * out
    assert main(argv + ["--backward"] * backward) == 2
    assert "leaf at x = 1 - alpha runs into the singular corner" in capsys.readouterr().err
    assert not path.exists()
    argv[argv.index("2000")] = "999"  # its last turn is visit 998
    assert main(argv + ["--backward"] * backward) == 0


def test_density_refuses_visits_over_budget_before_allocating(capsys):
    tracemalloc.start()
    try:
        assert main(["density", "--N", str(10**15)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("rotn: error: level 0 is reached ") and err.count("\n") == 1
    assert "above the budget of 268435456 visits" in err
    assert peak < 2**22


@pytest.mark.parametrize("argv, N", [
    (["heavy", "--alpha", "[0;(2)]", "--out"], 10**13),
    (["leaf", "--alpha", "[0;(2)]", "--ray", "0", "--precision", "exact-only", "--out"],
     10**11),
], ids=["certified-scan", "exact-leaf-ray"])
def test_runs_past_the_hosts_memory_are_refused_before_allocating(tmp_path, capsys, argv,
                                                                  N):
    # a scan or a trace is charged 17 B a point: 10^13 and 10^11 points are
    # far past any host's memory here, and are refused naming --N, not by
    # numpy's "Unable to allocate".  A certified heavy scans only for --out
    argv = argv + [str(tmp_path / "run.csv")]
    assert main(argv + ["--N", "1000"]) == 0  # imports
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(argv + ["--N", str(N)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("rotn: error: --N %d: " % N) and err.count("\n") == 1
    assert "above the host's memory of" in err
    assert peak < 2**22


def test_exact_only_and_inadmissible_runs_scan():
    # exact-only runs scan, on an alpha with a tower or with none
    for fields in (dict(kind="heavy", N=100, precision="exact-only"),
                   dict(kind="density", N=100, precision="exact-only"),
                   dict(kind="heavy", alpha="[0;(2)]", N=100, precision="exact-only"),
                   dict(kind="density", alpha="[0;(2)]", N=100, precision="exact-only")):
        rep = run(ExperimentConfig(**fields))
        assert rep["signs"] == "scan" and rep["prefix_steps_checked"] == 0


@pytest.mark.parametrize("N", [1, 100, 2**16 + 1])
def test_certified_runs_with_no_tower_read_euclids_word(N):
    # they key the first 2^16 steps of Euclid's word, and report what a
    # certified scan of every step reads
    scan = orbit_scan(HALF, parse_cf("[0;(2)]").value, N + 2)
    for fields in (dict(kind="heavy"), dict(kind="density", m=-3, k=2),
                   dict(kind="density", m=0, k=-1), dict(kind="leaf", ray=-2)):
        fields.update(alpha="[0;(2)]", N=N)
        rep = run(ExperimentConfig(**fields))
        assert rep["signs"] == "euclid" and rep["prefix_steps_checked"] == min(N, 2**16)
        assert rep["prefix_agrees"] is True
        want = _scanned(scan, **fields)
        assert {k: rep[k] for k in want} == want


@pytest.mark.parametrize("kind", ["density", "heavy", "leaf"])
def test_a_flipped_tower_letter_fails_the_prefix_check(monkeypatch, capsys, kind):
    seed = {"heavy": ["--alpha", "[0;5,(6)]"], "leaf": ["--ray", "0"]}.get(kind, [])
    argv = [kind, "--N", "1000"] + seed
    honest = orbits.letters
    assert main(argv) == (1 if kind == "heavy" else 0)  # heavy: its sums cross 0

    def flipped(w, n):
        out = honest(w, n)
        if n > 100:
            out[100] *= -1
        return out

    monkeypatch.setattr(orbits, "letters", flipped)
    rep = run(ExperimentConfig(kind=kind, N=1000, ray=0 if kind == "leaf" else None))
    assert rep["prefix_agrees"] is False and rep["ok"] is False
    assert main(argv) == 1
    capsys.readouterr()


@pytest.mark.parametrize("m", [2, 5])
def test_example_off_the_descent_equals_the_exact_scan(m):
    # past the 10^5-step scan window, only Euclid's word covers the steps
    fields = dict(kind="example", m=m, k_max=6, N=3 * 10**5)
    cert = run(ExperimentConfig(**fields))
    assert cert == run(ExperimentConfig(**fields, precision="exact-only"))
    assert cert["ok"] is True


@pytest.mark.parametrize("N", [1, 2**16 + 1, 10**5 + 1])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_example_reports_the_same_on_either_route(monkeypatch, m, N):
    # Euclid's word keys only the 10^5 signs it checks forward, and one more
    # backward, and walks nothing; the exact route, the same run exact-only,
    # folds all N steps forward, keeping the 10^5 signs it checks, and the
    # same backward signs as the keys, keys nothing and scans nothing
    forward, keyed = [], []
    honest_fold, honest_keys = orbits.exact_sums, orbits.key_signs

    def counted_fold(x, alpha, n, keep):
        forward.append((n, keep))
        return honest_fold(x, alpha, n, keep)

    def counted_keys(x, step, n):
        keyed.append((n, "forward" if step > 0 else "backward"))
        return honest_keys(x, step, n)

    monkeypatch.setattr(orbits, "exact_sums", counted_fold)
    monkeypatch.setattr(orbits, "key_signs", counted_keys)
    monkeypatch.setattr(orbits, "orbit_scan", lambda *a, **k: pytest.fail("scanned"))
    fields = dict(kind="example", m=m, k_max=6, N=N)
    rep = run(ExperimentConfig(**fields))
    n = min(N, 10**5)
    assert keyed == [(n, "forward"), (n + 1, "backward")] and forward == []
    assert rep["ok"] is True
    keyed.clear()
    assert run(ExperimentConfig(**fields, precision="exact-only")) == rep
    assert forward == [(N, n), (n + 1, n + 1)] and keyed == []


def test_example_forward_max_is_the_witness_prefix_max_far_out():
    N = 10**12
    for m, k_max in ((2, 10), (3, 8)):
        witness = example_m_formulas(m, k_max).witness
        lo, counts = prefix_histogram(witness, N)
        rep = run(ExperimentConfig(kind="example", m=m, k_max=k_max, N=N))
        assert rep["max_forward_sum"] == lo + counts.size - 1 == -1 and rep["ok"]


def test_a_flipped_descent_letter_fails_the_example(monkeypatch):
    witness = example_m_formulas(2, 6).witness
    honest = orbits.letters

    def flipped(w, n):
        out = honest(w, n)
        if w is not witness:
            out[100] *= -1
        return out

    monkeypatch.setattr(orbits, "letters", flipped)
    rep = run(ExperimentConfig(kind="example", m=2, k_max=6, N=1000))
    assert rep["max_forward_sum"] == -1
    assert rep["symmetric_sums"] and rep["witness_prefix_ok"] and rep["formulas_ok"]
    assert rep["ok"] is False


def test_heavy_answers_n_past_memory_off_the_tower():
    # a fresh process, so the tower is built from a cold cache
    code = ("import contextlib, io, json, time\n"
            "from rotn.cli import main\n"
            "said = io.StringIO()\n"
            "t = time.perf_counter()\n"
            "with contextlib.redirect_stdout(said):\n"
            "    status = main(['heavy', '--alpha', '[0;5,(6)]', '--N', str(10**18)])\n"
            "print(json.dumps({'status': status, 'seconds': time.perf_counter() - t,\n"
            "                  'report': json.loads(said.getvalue())}))\n")
    out = _fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["status"] == 1 and doc["seconds"] < 1.0
    rep = doc["report"]
    assert rep["final_sum"] == fast_birkhoff(parse_cf("[0;5,(6)]"), 10**18)
    assert rep["signs"] == "tower" and rep["prefix_agrees"] is True
    assert rep["prefix_steps_checked"] == 2**16
    assert rep["min_sum"] <= min(rep["final_sum"], -1) and rep["max_sum"] >= 0
    assert 0 < rep["violations"] < 10**18


def _same_ray(tower_rep, euclid_rep, steps, want):
    assert tower_rep["signs"] == "tower" and tower_rep["prefix_steps_checked"] == steps
    assert euclid_rep["signs"] == "euclid"
    assert tower_rep["ok"] is tower_rep["prefix_agrees"] is True
    assert {k: v for k, v in tower_rep.items() if k != "signs"} \
        == {k: v for k, v in euclid_rep.items() if k != "signs"}
    assert {k: tower_rep[k] for k in want} == want


@pytest.mark.parametrize("N", [1, 255, 256, 257, 2**16 - 1, 2**16, 2**16 + 1, 10**6])
@pytest.mark.parametrize("alpha", ["[0;5,(6)]", "[0;7,(8,10)]", "[0;15,(20)]"])
def test_leaf_ray_off_the_tower_equals_the_scan(monkeypatch, alpha, N):
    scan = orbit_scan(HALF, parse_cf(alpha).value, N)
    for ray in range(-5, 6):
        fields = dict(kind="leaf", alpha=alpha, ray=ray, N=N)
        _same_ray(run(ExperimentConfig(**fields)), _euclid_route(monkeypatch, **fields),
                  min(N, 2**16), _scanned(scan, **fields))


def test_leaf_ray_out_traces_every_entry_once(monkeypatch, tmp_path):
    N = 2**16 + 1
    traces = []
    honest = orbits.trace_ray

    def counted(i, alpha, n, *, policy="certified"):
        traces.append((n, policy))
        return honest(i, alpha, n, policy=policy)

    monkeypatch.setattr(orbits, "trace_ray", counted)
    tower_out, euclid_out = str(tmp_path / "tower.csv"), str(tmp_path / "euclid.csv")
    rep = run(ExperimentConfig(kind="leaf", ray=3, N=N, out=tower_out))
    # one full certified trace, and the 256-entry exact retrace
    assert traces == [(N, "certified"), (256, "exact")]
    assert rep["signs"] == "scan" and rep["ok"] is True
    # with no alpha admissible it traces the same, and reads no word
    assert rep == _euclid_route(monkeypatch, kind="leaf", ray=3, N=N, out=euclid_out)
    # the header lines differ only in the --out path they record
    assert open(tower_out, "rb").readlines()[1:] == open(euclid_out, "rb").readlines()[1:]


@pytest.mark.parametrize("N", [1, 255, 256, 257, 2**16 + 1, 10**6])
def test_leaf_ray_on_the_tower_traces_only_the_retraced_entries(monkeypatch, N):
    traces, scans, keyed = [], [], []
    honest_trace, honest_scan = orbits.trace_ray, orbits.orbit_scan
    honest_keys = orbits.key_signs

    def counted_trace(i, alpha, n, *, policy="certified"):
        traces.append((n, policy))
        return honest_trace(i, alpha, n, policy=policy)

    def counted_scan(x, alpha, n, **kwargs):
        scans.append(n)
        return honest_scan(x, alpha, n, **kwargs)

    def counted_keys(x, step, n):
        keyed.append(n)
        return honest_keys(x, step, n)

    monkeypatch.setattr(orbits, "trace_ray", counted_trace)
    monkeypatch.setattr(orbits, "orbit_scan", counted_scan)
    monkeypatch.setattr(orbits, "key_signs", counted_keys)
    rep = run(ExperimentConfig(kind="leaf", ray=3, N=N))
    # _orbit's prefix keys check the word, and nothing is scanned; the
    # trace is only the certified side of the 256-entry retrace
    assert keyed == [min(N, 2**16)] and scans == []
    assert traces == [(min(N, 256), "certified"), (min(N, 256), "exact")]
    assert rep["signs"] == "tower" and rep["ok"] is True


@pytest.mark.parametrize("argv, steps", [
    (["heavy", "--alpha", "[0;5,(6)]"], 2**16),
    (["density", "--m", "40"], 2**16),  # level 40 is never visited
    (["leaf", "--ray", "2"], 2**16),
    (["example", "--m", "2", "--kmax", "6"], 10**5),
    (["heavy", "--alpha", "[0;(2)]"], 2**16),
    (["density", "--alpha", "[0;(2)]", "--m", "40"], 2**16),
    (["leaf", "--alpha", "[0;(2)]", "--ray", "2"], 2**16),
], ids=["heavy", "density", "leaf-ray", "example", "euclid-heavy", "euclid-density",
        "euclid-leaf-ray"])
def test_tower_runs_without_out_never_scan(monkeypatch, capsys, argv, steps):
    # their checks key the signs: no orbit_scan, no scan of any policy
    # past the leaf's 256-entry retrace, and a peak below one float64 or
    # int64 array of the checked steps, 8 B a step; so do the runs on an
    # alpha with no tower, which read Euclid's word
    def refuse(*args, **kwargs):
        raise AssertionError("orbit_scan called")

    def short(honest):
        def scan_of(x0, step, count):
            assert count <= 257, count
            return honest(x0, step, count)
        return scan_of

    status = 1 if argv[:3] == ["heavy", "--alpha", "[0;5,(6)]"] else 0  # its sums cross 0
    assert main(argv + ["--N", "1000"]) == status  # imports and tower cache
    capsys.readouterr()
    monkeypatch.setattr(orbits, "orbit_scan", refuse)
    for name in ("_certified_scan", "_exact_scan"):
        monkeypatch.setattr(scan, name, short(getattr(scan, name)))
    tracemalloc.start()
    try:
        assert main(argv + ["--N", str(10**6)]) == status
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rep = json.loads(capsys.readouterr().out)
    if argv[0] != "example":
        assert rep["signs"] == ("euclid" if "[0;(2)]" in argv else "tower")
        assert rep["prefix_agrees"] is True and rep["prefix_steps_checked"] == steps
    assert rep["ok"] is (status == 0)
    assert peak < 8 * steps, peak


def test_leaf_ray_answers_n_past_memory_off_the_tower():
    # a fresh process, so the tower is built from a cold cache
    code = ("import contextlib, io, json, time\n"
            "from rotn.cli import main\n"
            "said = io.StringIO()\n"
            "t = time.perf_counter()\n"
            "with contextlib.redirect_stdout(said):\n"
            "    status = main(['leaf', '--alpha', '[0;5,(6)]', '--ray', '0',\n"
            "                   '--N', str(10**18)])\n"
            "print(json.dumps({'status': status, 'seconds': time.perf_counter() - t,\n"
            "                  'report': json.loads(said.getvalue())}))\n")
    out = _fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["status"] == 0 and doc["seconds"] < 1.0
    rep = doc["report"]
    lo, counts = prefix_histogram(half_word(parse_cf("[0;5,(6)]"), 10**18), 10**18)
    assert (rep["min_level"], rep["max_level"]) == (1 + lo, lo + counts.size)
    assert rep["levels_visited"] == list(range(1 + lo, 1 + lo + counts.size))
    assert rep["N"] == 10**18 and rep["signs"] == "tower"
    assert rep["prefix_steps_checked"] == 2**16 and rep["prefix_agrees"] is True


@pytest.mark.parametrize("N", [1, 2**16 - 1, 2**16 + 1, 10**5])
def test_reports_read_one_summary_whichever_route(monkeypatch, N):
    # each report against its own run with no alpha admissible (the
    # Euclid route), and both against one exact scan of the orbit of 1/2
    for alpha in ("[0;5,(6)]", "[0;7,(8,10)]", "[0;15,(20)]"):
        av = parse_cf(alpha).value
        sums = orbit_scan(HALF, av, N, policy="exact").sums

        def both(**fields):
            reps = run(ExperimentConfig(alpha=alpha, N=N, **fields)), \
                _euclid_route(monkeypatch, alpha=alpha, N=N, **fields)
            assert [r["signs"] for r in reps] == ["tower", "euclid"]
            return reps

        s = sums[1:]
        want = {"violations": int(np.count_nonzero(s >= 0)), "min_sum": int(s.min()),
                "max_sum": int(s.max()), "final_sum": int(s[-1])}
        for rep in both(kind="heavy"):
            assert {k: rep[k] for k in want} == want

        want = {"seed": "ray 2", "N": N, "min_level": 3 + int(s.min()),
                "max_level": 3 + int(s.max()),
                "levels_visited": [3 + int(v) for v in np.unique(s)]}
        for rep in both(kind="leaf", ray=2):
            assert {k: rep[k] for k in want} == want

        for m in (-1, 0, 40):  # level 40 is never visited
            vs = visit_set(HALF, av, m, N)  # certified positions, as the runs'
            assert vs.count == np.count_nonzero(sums == m)
            want = {"m": m, "k": 0, "N": N, "count": vs.count,
                    "first_time": int(vs.times[0]) if vs.count else None,
                    "max_gap": max_gap(vs.positions) if vs.count else None}
            for rep in both(kind="density", m=m):
                assert {k: rep[k] for k in want} == want
                last = rep["horizons"][-1]
                assert {k: last[k] for k in ("N", "count", "first_time")} \
                    == {k: rep[k] for k in ("N", "count", "first_time")}
                if vs.count:
                    assert last["max_gap"] == rep["max_gap"]
                else:
                    assert last["max_gap"] is None


def test_scan_route_summaries_copy_no_full_array():
    # a leaf traced for its --out table holds its certified trace, 16 B a
    # step (positions and levels); the report bins the levels, and the
    # step check takes their differences, a chunk at a time.  The table is
    # built, not written.  (Without --out a leaf reads a word, and an
    # exact trace of 10^6 visits takes 15 s under tracemalloc.)
    leaf = orbits.EXPERIMENTS["leaf"]

    def config(N):
        return ExperimentConfig(kind="leaf", alpha="[0;(2)]", through="(1+a)/2", N=N,
                                out="leaf.csv")
    leaf(config(1000))  # imports
    tracemalloc.start()
    try:
        report, table = leaf(config(10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["ok"] and report["signs"] == "scan" and len(table[1][2]) == 10**6 + 1
    assert peak <= 17.6 * 10**6, peak / 10**6


@pytest.mark.parametrize("argv", [
    ["heavy", "--alpha", "[0;(2)]", "--precision", "exact-only"],
    ["example", "--m", "3", "--precision", "exact-only"],
    ["leaf", "--alpha", "[0;(2)]", "--ray", "0", "--precision", "exact-only"],
    ["leaf", "--through", "(1+a)/2", "--backward", "--precision", "exact-only"],
], ids=["heavy", "example", "leaf-ray", "leaf-through-backward"])
def test_exact_only_heavy_and_example_fold_in_bounded_memory(monkeypatch, capsys, argv):
    # the exact walk's chunks are folded into the histogram as they come,
    # so the peak is a chunk's temporaries and the kept signs, whatever N;
    # a leaf traces only the visits the other precision retraces
    assert main(argv + ["--N", "1000"]) == 0  # imports
    capsys.readouterr()
    monkeypatch.setattr(orbits, "orbit_scan", lambda *a, **k: pytest.fail("scanned"))
    for N in (1000, 10**6):
        tracemalloc.start()
        try:
            assert main(argv + ["--N", str(N)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert peak <= 2 * 2**20, (N, peak)


def test_exact_only_reports_count_no_escalation_with_every_key_open(monkeypatch):
    # the exact walk certifies nothing: with the key band widened to every
    # point, for the walk and for key_signs alike, each point takes the
    # exact floor and sign of its point, the reports keep their bytes and
    # heavy's and density's escalations 0, and the counter of the
    # certified fallbacks does not move: example's backward signs come
    # from the walk too, not from key_signs
    configs = [ExperimentConfig(kind="heavy", N=3000, precision="exact-only"),
               ExperimentConfig(kind="density", m=-1, N=3000, precision="exact-only"),
               ExperimentConfig(kind="example", m=3, k_max=2, N=3000, precision="exact-only")]
    honest = [json_text(run(config)) for config in configs]
    band = scan._key_band

    def every_key(X, s, b, lo):
        band(X, s, b, lo)
        return np.arange(X.size)

    monkeypatch.setattr(scan, "_key_band", every_key)
    # key_signs reads the widened band too: any call of it would count
    assert scan.key_signs(HALF, parse_cf("[0;5,(6)]").value, 10)[1].size == 10
    before = escalations.count
    for config, text in zip(configs, honest):
        assert json_text(run(config)) == text
        assert json.loads(text).get("escalations", 0) == 0  # example has no such key
        assert escalations.count == before, config.kind


@pytest.mark.parametrize("kind", ["heavy", "example"])
def test_the_exact_walk_budget_answers_its_own_size(monkeypatch, capsys, kind):
    monkeypatch.setattr(orbits, "_MAX_EXACT_STEPS", 1000)
    argv = [kind, "--precision", "exact-only", "--N"]
    assert main(argv + ["1000"]) == 0
    capsys.readouterr()
    assert main(argv + ["1001"]) == 2
    assert capsys.readouterr().err == ("rotn: error: --N 1001: an exact walk of 1001 steps "
                                       "is above the budget of 1000 steps\n")


def test_run_oracle_report(tmp_path):
    out = str(tmp_path / "oracle.json")
    rep = run(ExperimentConfig(kind="oracle", depth=3, samples=4, seed=7, out=out))
    assert rep["ok"] and rep["matches"] == rep["total"] == 2 * 3 * 4
    assert {r["level"] for r in rep["regions"]} == {2, 3}
    assert config_from_header(read_header(out)).samples == 4


# one config per kind, and the argv that asks for the same run; the
# density alpha is not in canonical form, and example --m 3 selects an
# alpha of its own
_ROUND_TRIPS = [
    (dict(kind="tower", depth=3, precision="exact-only"),
     ["tower", "--alpha", "[0;5,(6)]", "--depth", "3"]),
    (dict(kind="density", alpha="[0; 5, (6,6)]", N=500),
     ["density", "--alpha", "[0; 5, (6,6)]", "--m", "0", "--k", "0", "--N", "500"]),
    (dict(kind="example", m=3, k_max=2, N=500),
     ["example", "--m", "3", "--kmax", "2", "--N", "500"]),
    (dict(kind="leaf", N=50, through="(1+a)/2", level=1, backward=True,
          precision="exact-only"),
     ["leaf", "--alpha", "[0;5,(6)]", "--N", "50", "--through", "(1+a)/2",
      "--level", "1", "--backward", "--precision", "exact-only"]),
    (dict(kind="heavy", alpha="[0;(2)]", N=500),
     ["heavy", "--alpha", "[0;(2)]", "--N", "500"]),
    (dict(kind="oracle", depth=2, samples=2, seed=3),
     ["oracle", "--alpha", "[0;5,(6)]", "--depth", "2", "--samples", "2",
      "--seed", "3"]),
]


@pytest.mark.parametrize("given, argv", _ROUND_TRIPS,
                         ids=[given["kind"] for given, _ in _ROUND_TRIPS])
def test_every_header_round_trips(tmp_path, capsys, given, argv):
    lib, cli = str(tmp_path / "lib.out"), str(tmp_path / "cli.out")
    config = ExperimentConfig(**given, out=lib)
    assert run(config)["ok"]
    assert config_from_header(read_header(lib)) == config
    assert main(argv + ["--out", cli]) == 0
    capsys.readouterr()
    assert config_from_header(read_header(cli)) == ExperimentConfig(**given, out=cli)


def test_run_dispatch_covers_all_kinds():
    reports = [
        run(ExperimentConfig(kind="tower", depth=3)),
        run(ExperimentConfig(kind="density", N=500)),
        run(ExperimentConfig(kind="example", m=2, k_max=2, N=500)),
        run(ExperimentConfig(kind="leaf", N=50, ray=1)),
        run(ExperimentConfig(kind="heavy", alpha="[0;(2)]", N=500)),
        run(ExperimentConfig(kind="oracle", depth=2, samples=2)),
    ]
    assert all(r["ok"] for r in reports)


# ---------------------------------------------------------------------------
# the CSV writer, against the row-by-row writer it replaced


def _ref_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # shortest round-trip form, stable across runs
    return str(v)


def _ref_write_csv(path, config, columns, rows):
    with open(path, "w", newline="") as fh:
        fh.write("# %s\n" % json.dumps(config.header(), sort_keys=True))
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_ref_cell(v) for v in row) + "\n")


_C = _ROWS_PER_WRITE
_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 0.1, 1 / 3, -2.5]
_INTS = [0, -1, 7, -(2 ** 63), 2 ** 63 - 1, -123456789]


def _table(rows):
    """One column of each kind the writer meets, rows long."""
    rng = np.random.default_rng(rows)
    x = rng.random(rows)
    x[: len(_FLOATS)] = _FLOATS[:rows]
    s = rng.integers(-(2 ** 40), 2 ** 40, rows)
    s[: len(_INTS)] = _INTS[:rows]
    big = [(-3) ** (i % 70) for i in range(rows)]  # ints past int64
    # None, bools and ints mixed; the last chunk alone holds a None
    mixed = [i if i % 3 else bool(i % 2) for i in range(rows)]
    maybe = [None if i == rows - 1 else i for i in range(rows)]
    floats = [_FLOATS[i % len(_FLOATS)] for i in range(rows)]
    # arrays whose formatter is not picked from the dtype (bool) or is (int8)
    flags = x < 0.5
    steps = np.where(flags, 1, -1).astype(np.int8)
    names = ["n", "x", "S", "big", "mixed", "maybe", "floats", "flags", "steps"]
    # a backward leaf's indices: 5, 4, 3, ...
    return names, [range(5, 5 - rows, -1), x, s, big, mixed, maybe, floats, flags,
                   steps]


@pytest.mark.parametrize("rows", [0, 1, _C - 1, _C, _C + 1, 3 * _C + 5])
def test_writer_matches_the_row_by_row_reference(tmp_path, rows):
    config = ExperimentConfig(kind="heavy", N=1)
    names, cols = _table(rows)
    # rows read column by column, numpy scalars (np.bool_ among them) and all
    as_rows = [tuple(c[i] for c in cols) for i in range(rows)]
    ref, by_col, by_row = (str(tmp_path / n) for n in ("ref", "col", "row"))
    _ref_write_csv(ref, config, names, as_rows)
    write_columns(by_col, config, names, cols)
    write_csv(by_row, config, names, iter(as_rows))
    want = open(ref, "rb").read()
    assert want.count(b"\n") == rows + 2
    assert open(by_col, "rb").read() == want
    assert open(by_row, "rb").read() == want


def _numeric_table(rows):
    """Ranges and integer and float arrays only, rows long: the columns
    write_columns spells in numpy."""
    rng = np.random.default_rng(rows + 1)
    x = rng.random(rows)
    x[: len(_FLOATS)] = _FLOATS[:rows]
    x[rows // 2: rows // 2 + 1] = 0.5  # a power of two, spelled by float.__repr__
    s = rng.integers(-(2 ** 40), 2 ** 40, rows)
    s[: len(_INTS)] = _INTS[:rows]
    small = rng.integers(-128, 128, rows).astype(np.int8)
    narrow = x.astype(np.float32)
    return (["n", "x", "S", "small", "narrow"],
            [range(5, 5 - rows, -1), x, s, small, narrow])


@pytest.mark.parametrize("rows", [0, 1, _C - 1, _C, _C + 1, 3 * _C + 5])
def test_numeric_writer_matches_the_row_by_row_reference(tmp_path, rows):
    config = ExperimentConfig(kind="heavy", N=1)
    names, cols = _numeric_table(rows)
    ref, by_col = str(tmp_path / "ref"), str(tmp_path / "col")
    _ref_write_csv(ref, config, names, [tuple(c[i] for c in cols) for i in range(rows)])
    write_columns(by_col, config, names, cols)
    want = open(ref, "rb").read()
    assert want.count(b"\n") == rows + 2
    assert open(by_col, "rb").read() == want


def _narrowing_table(seed):
    """Five chunks whose slots narrow after wider ones: an int column of
    3 digit groups in chunk 1 and 1 after, negative only in chunk 2, and
    24-byte float fallbacks in chunk 1 only."""
    rng = np.random.default_rng(seed)
    rows = 4 * _C + 5
    s = rng.integers(0, 10 ** 4, rows)
    s[:_C] = rng.integers(10 ** 8, 10 ** 10, _C)
    s[_C:2 * _C] = -rng.integers(1, 10 ** 4, _C)
    x = rng.random(rows)
    x[_C - 3:_C] = [5e-324, -2.2250738585072014e-308, math.nan]
    return ["n", "x", "S"], [range(0, -rows, -1), x, s]


def test_numeric_writer_keeps_no_stale_bytes_as_its_slots_narrow(tmp_path):
    config = ExperimentConfig(kind="heavy", N=1)
    # two tables back to back, each on its own kept matrix
    for seed in (1, 2):
        names, cols = _narrowing_table(seed)
        rows = len(cols[0])
        ref, by_col = str(tmp_path / ("ref%d" % seed)), str(tmp_path / ("col%d" % seed))
        _ref_write_csv(ref, config, names, [tuple(c[i] for c in cols) for i in range(rows)])
        write_columns(by_col, config, names, cols)
        assert open(by_col, "rb").read() == open(ref, "rb").read()


def _spy_writes(monkeypatch):
    """The data of every write of rotn.harness's files, in order."""
    writes = []

    class Spy:
        def __init__(self, path, mode, **kwargs):
            self.fh = open(path, mode, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            writes.append(data)
            return self.fh.write(data)

    monkeypatch.setattr("rotn.harness.open", Spy, raising=False)
    return writes


def test_numeric_writer_makes_one_write_per_chunk(tmp_path, monkeypatch):
    rows = 3 * _C + 5
    names, cols = _numeric_table(rows)
    config = ExperimentConfig(kind="heavy", N=1)
    writes = _spy_writes(monkeypatch)
    write_columns(str(tmp_path / "t.csv"), config, names, cols)
    # the header, then one write for each of the four chunks
    assert len(writes) == 5
    assert [w.count(b"\n") for w in writes[1:]] == [_C, _C, _C, 5]


@pytest.mark.parametrize("with_list", [False, True])
def test_writer_spells_float_arrays_of_any_width_as_float64(tmp_path, with_list):
    # a longdouble array once listed as np.longdouble('0.10000000000000000555')
    x = np.array([0.1, 1 / 3, 2.5, 7e-5, -0.0, math.nan])
    cols = [range(x.size)] + [x.astype(t) for t in
                              (np.float16, np.float32, np.float64, np.longdouble)]
    names = ["n", "half", "single", "double", "long"]
    if with_list:  # a None sends every chunk to the row join
        cols.append([None] + list(range(1, x.size)))
        names.append("k")
    ref, by_col, by_row = _three_ways(tmp_path, names, cols)
    assert by_col == ref and by_row == ref
    assert b"np." not in ref and b",0.1,0.1" in ref


def _three_ways(tmp_path, names, cols):
    """The bytes of the reference, write_columns and write_csv on one table."""
    config = ExperimentConfig(kind="heavy", N=1)
    rows = list(zip(*cols))
    ref, by_col, by_row = (str(tmp_path / n) for n in ("ref", "col", "row"))
    _ref_write_csv(ref, config, names, rows)
    write_columns(by_col, config, names, cols)
    write_csv(by_row, config, names, iter(rows))
    return [open(p, "rb").read() for p in (ref, by_col, by_row)]


def test_writer_spells_percent_signs_and_commas_verbatim(tmp_path):
    # a text cell is written as it stands, "%" and "," alike
    cells = ["%", "%s", "%%", "a,b", "%d%r", "100%", "%(x)s"]
    cols = [range(len(cells)), cells, [float(i) for i in range(len(cells))]]
    ref, by_col, by_row = _three_ways(tmp_path, ["n", "text", "x"], cols)
    assert by_col == ref and by_row == ref
    assert ref.split(b"\n", 2)[2] == b"".join(
        b"%d,%s,%d.0\n" % (i, c.encode(), i) for i, c in enumerate(cells))


def test_writer_makes_one_write_per_chunk(tmp_path, monkeypatch):
    # the mixed table takes the row join, in both forms
    rows = 3 * _C + 5
    names, cols = _table(rows)
    config = ExperimentConfig(kind="heavy", N=1)
    writes = _spy_writes(monkeypatch)
    write_columns(str(tmp_path / "c.csv"), config, names, cols)
    write_csv(str(tmp_path / "r.csv"), config, names, zip(*cols))
    # each: the header, then one write for each of the four chunks
    assert [w.count(b"\n") for w in writes] == [2, _C, _C, _C, 5] * 2


def test_writer_writes_text_cells_as_utf8(tmp_path):
    # whatever the locale's encoding
    cells = ["α", "S_n ≥ 0", "naïve", "日本"]
    config = ExperimentConfig(kind="heavy", N=1)
    by_col, by_row = str(tmp_path / "col"), str(tmp_path / "row")
    write_columns(by_col, config, ["n", "text"], [range(len(cells)), cells])
    write_csv(by_row, config, ["n", "text"], enumerate(cells))
    want = "".join("%d,%s\n" % (i, c) for i, c in enumerate(cells)).encode("utf-8")
    for path in (by_col, by_row):
        assert open(path, "rb").read().split(b"\n", 2)[2] == want


@pytest.mark.parametrize("col, numeric", [
    ([-(2 ** 63), 2 ** 63 - 1, 0], True),  # int64's edges
    ([-(2 ** 63) - 1, 0, 1], False),  # just past them
    ([2 ** 63, 0, 1], False),
    ((7, -1, 12345), True),
    ([1, True, 0], False),  # _cell spells a bool true or false
    ([0.5, np.float64(0.1), math.nan], True),
    ([1, 2.5, 3], False),
    ([None, 1, 2], False),  # as density's ladder with an empty cell
])
def test_writer_spells_list_chunks_of_ints_or_of_floats_in_numpy(tmp_path, monkeypatch,
                                                                col, numeric):
    calls = []
    real = spell.spell_rows
    monkeypatch.setattr(spell, "spell_rows",
                        lambda cols, kept: calls.append(kept) or real(cols, kept))
    monkeypatch.setattr(harness, "_SPELL_ROWS", 1)  # so that 3 rows are not short
    ref, by_col, by_row = _three_ways(tmp_path, ["n", "v"], [range(len(col)), col])
    assert by_col == ref and by_row == ref
    assert len(calls) == (2 if numeric else 0)


def test_writer_spells_a_short_chunk_row_by_row(tmp_path, monkeypatch):
    # below _SPELL_ROWS rows, as density's ladder of at most 9 is, the
    # _cell row join is faster than rotn.spell's fixed cost; the bytes agree
    calls = []
    real = spell.spell_rows
    monkeypatch.setattr(spell, "spell_rows",
                        lambda cols, kept: calls.append(kept) or real(cols, kept))
    short = harness._SPELL_ROWS
    # a call a chunk of short rows or more, by write_columns and write_csv;
    # a table's short last chunk takes the row join too
    for rows, spelt in ((short - 1, 0), (short, 2), (_C + short - 1, 2)):
        calls.clear()
        col = [0.1 * i for i in range(rows)]
        ref, by_col, by_row = _three_ways(tmp_path, ["n", "v"], [range(rows), col])
        assert by_col == ref and by_row == ref
        assert len(calls) == spelt, rows


def test_writer_spells_a_column_of_ints_and_floats_as_each(tmp_path):
    mixed = [1, 2.5, -0.0, 10 ** 20, math.nan, -7, 1e16, np.int64(-3), np.float64(0.1)]
    rows = 2 * _C + 3  # the mixture in every chunk
    col = [mixed[i % len(mixed)] for i in range(rows)]
    ref, by_col, by_row = _three_ways(tmp_path, ["n", "v"], [range(rows), col])
    assert by_col == ref and by_row == ref
    assert ref.split(b"\n")[2:11] == [b"0,1", b"1,2.5", b"2,-0.0", b"3,%d" % 10 ** 20,
                                       b"4,nan", b"5,-7", b"6,1e+16", b"7,-3", b"8,0.1"]


def test_writer_row_form_spells_floats_and_numpy_floats_alike(tmp_path):
    # float and np.float64 cells in one chunk of the row form, and chunks
    # of each alone: np.float64's own repr would read np.float64(0.1)
    rows = 3 * _C
    xs = [0.1 * i if i % 2 or i >= 2 * _C else np.float64(0.1 * i) for i in range(rows)]
    xs[_C: 2 * _C] = map(np.float64, xs[_C: 2 * _C])
    ref, by_col, by_row = _three_ways(tmp_path, ["n", "x"], [range(rows), xs])
    assert by_col == ref and by_row == ref
    assert b"np.float64" not in ref and ref.count(b",0.30000000000000004\n") == 1


def test_writer_refuses_an_int_past_the_digit_limit_as_the_reference(tmp_path):
    config = ExperimentConfig(kind="heavy", N=1)
    huge = 10 ** 5000
    errors = []
    for write in (lambda p: _ref_write_csv(p, config, ["n", "v"], [(0, 1), (1, huge)]),
                  lambda p: write_columns(p, config, ["n", "v"], [range(2), [1, huge]]),
                  lambda p: write_csv(p, config, ["n", "v"], [(0, 1), (1, huge)]),
                  lambda p: write_csv(p, config, ["n", "v"], [(0, 1.5), (1, huge)])):
        with pytest.raises(ValueError) as err:
            write(str(tmp_path / "big.csv"))
        errors.append(str(err.value))
    assert len(set(errors)) == 1 and "4300 digits" in errors[0]


def test_writer_takes_the_benchmark_row_form(tmp_path):
    # (int, np.float64, int) rows, as the benchmark's writer probe builds them
    N = 2 * _C + 3
    scan = orbit_scan(HALF, parse_cf("[0;(2)]").value, N)
    config = ExperimentConfig(kind="heavy", alpha="[0;(2)]", N=N)

    def rows():
        return ((n, scan.positions[n], int(scan.sums[n])) for n in range(N + 1))

    names = ["n", "position", "S_n"]
    ref, by_row, by_run = (str(tmp_path / n) for n in ("ref", "row", "run"))
    _ref_write_csv(ref, config, names, rows())
    write_csv(by_row, config, names, rows())
    run(ExperimentConfig(kind="heavy", alpha="[0;(2)]", N=N, out=by_run))
    payload = lambda p: open(p, "rb").read().split(b"\n", 1)[1]
    assert open(by_row, "rb").read() == open(ref, "rb").read()
    assert payload(by_run) == payload(ref)


@pytest.mark.parametrize("short", [0, 5, _C + 5])
def test_writer_refuses_a_row_of_another_length(tmp_path, short):
    # a short row anywhere, in the first chunk or a later one, is an error,
    # never a chunk cut to its shortest row
    config = ExperimentConfig(kind="heavy", N=1)
    rows = [(i, 0.5, i) for i in range(2 * _C)]
    rows[short] = (short, 0.5)
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "r.csv"), config, ["n", "x", "S"], rows)
    rows[short] = (short, 0.5, short, 1)
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "r.csv"), config, ["n", "x", "S"], rows)


@pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (_C + 1, _C + 2)])
def test_writer_refuses_columns_of_different_lengths(tmp_path, lengths):
    config = ExperimentConfig(kind="heavy", N=1)
    path = tmp_path / "c.csv"
    with pytest.raises(ValueError):
        write_columns(str(path), config, ["a", "b"], [range(n) for n in lengths])
    assert not path.exists()


def test_writer_never_holds_a_whole_column(tmp_path):
    # one column as a list of floats would take 32 B/row, 8 MB here; a
    # chunk's cells and text take about 1.5 MB whatever the row count
    N = 250_000
    scan = orbit_scan(HALF, parse_cf("[0;(2)]").value, N)
    config = ExperimentConfig(kind="heavy", alpha="[0;(2)]", N=N)
    tracemalloc.start()
    try:
        write_columns(str(tmp_path / "h.csv"), config, ["n", "position", "S_n"],
                      [range(N + 1), scan.positions, scan.sums])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


# ---------------------------------------------------------------------------
# determinism


def test_exact_runs_are_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run(ExperimentConfig(kind="density", N=3000, out=a, precision="exact-only"))
    run(ExperimentConfig(kind="density", N=3000, out=b, precision="exact-only"))
    payload = lambda p: open(p, "rb").read().split(b"\n", 1)[1]
    assert payload(a) == payload(b)
    run(ExperimentConfig(kind="density", N=3000, out=a, precision="exact-only"))
    assert payload(a) == payload(b)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_leaf_seed_is_taken_mod_1(tmp_path, precision):
    # the seed string and every row name the point on the circle
    reports, rows = [], []
    for name, through in (("x.csv", "(1+a)/2"), ("x3.csv", "(1+a)/2 + 3")):
        out = str(tmp_path / name)
        reports.append(run(ExperimentConfig(kind="leaf", N=300, through=through,
                                            out=out, precision=precision)))
        rows.append(open(out).read().split("\n", 1)[1])
    assert reports[0] == reports[1] and rows[0] == rows[1]
    assert reports[0]["seed"] == "leaf through (%s, 0)" % (((1 + A) / 2).exact_str(),)


def test_leaf_exact_determinism(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for p in (a, b):
        run(ExperimentConfig(kind="leaf", N=200, through="(1+a)/2", level=2, out=p,
                             precision="exact-only"))
    payload = lambda q: open(q, "rb").read().split(b"\n", 1)[1]
    assert payload(a) == payload(b)


# ---------------------------------------------------------------------------
# the command line


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["tower", "--depth", "3"]) == 0
    assert main(["heavy", "--alpha", "[0;(2)]", "--N", "1000"]) == 0
    assert main(["heavy", "--alpha", "[0;5,(6)]", "--N", "1000"]) == 1
    assert main(["tower", "--alpha", "[0;4,(6)]", "--depth", "3"]) == 2
    assert main(["leaf", "--through", "import os", "--N", "5"]) == 2
    capsys.readouterr()
    assert main(["leaf", "--through", "1/0", "--N", "5"]) == 2
    assert capsys.readouterr().err == "rotn: error: division by zero in point '1/0'\n"
    # an --out path that cannot be written
    assert main(["heavy", "--N", "10", "--out", str(tmp_path / "missing" / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rotn: error: ") and err.count("\n") == 1
    # one in no directory, or a directory, is refused before the run, which
    # here would take about a second: the experiment in its place never runs
    monkeypatch.setitem(orbits.EXPERIMENTS, "heavy", lambda config: pytest.fail("ran"))
    slow = ["heavy", "--alpha", "[0;(2)]", "--N", str(10 ** 7), "--precision", "exact-only"]
    for out in (tmp_path / "missing" / "h.csv", tmp_path):
        assert main(slow + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rotn: error: --out ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    # 10^18 steps cannot be allocated, or walked, on any machine: one line,
    # no traceback.  A certified density allocates only its visits, and
    # refuses the ~10^17 visits of level 0 as over its budget.  A certified
    # heavy (its default alpha, [0;(2)], has no tower) and a summary-only
    # certified ray read their sums off a word instead, the tower's or
    # Euclid's, and a certified example its forward sums off Euclid's word
    # of x; an exact heavy or example must walk every step, past the exact
    # walk's step budget, and an exact ray or one that writes every entry
    # must trace or scan every step
    huge = str(10**18)
    ray = ["leaf", "--ray", "0", "--N", huge]
    for argv in (["heavy", "--N", huge, "--precision", "exact-only"],
                 ["density", "--N", huge], ["example", "--N", huge, "--precision", "exact-only"],
                 ray + ["--precision", "exact-only"],
                 ray + ["--out", str(tmp_path / "ray.csv")],
                 ["leaf", "--through", "(1+a)/2", "--N", huge, "--precision", "exact-only"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("rotn: error: ") and err.count("\n") == 1
    assert main(["example", "--N", huge]) == 0
    assert json.loads(capsys.readouterr().out)["max_forward_sum"] == -1
    for argv in (["heavy", "--N", huge], ray + ["--alpha", "[0;(2)]"]):
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["signs"] == "euclid"
    # a seed with a 12,900-bit denominator runs in both precisions
    for precision in PRECISIONS:
        assert main(["leaf", "--through", "a**5000", "--N", "3",
                     "--precision", precision]) == 0
    # tower and oracle are exact by construction and take no --precision
    for kind in ("tower", "oracle"):
        with pytest.raises(SystemExit) as usage:
            main([kind, "--precision", "exact-only"])
        assert usage.value.code == 2
    capsys.readouterr()


def test_cli_parser_is_built_once_and_keeps_no_state(monkeypatch, capsys):
    from rotn import cli

    assert cli._build_parser() is cli._build_parser()
    seen = []
    honest = cli._config

    def recorded(ns):
        seen.append(vars(ns).copy())
        return honest(ns)

    monkeypatch.setattr(cli, "_config", recorded)
    runs = [["leaf", "--through", "(1+a)/2", "--level", "2", "--backward", "--N", "5",
             "--precision", "exact-only"],
            ["leaf", "--ray", "1", "--N", "5"],
            ["heavy", "--alpha", "[0;(2)]", "--N", "10"]]
    for argv in runs:
        assert main(argv) == 0
    # each namespace is what a parser built afresh gives for its argv
    fresh = cli._build_parser.__wrapped__
    assert seen == [vars(fresh().parse_args(argv)) for argv in runs]
    assert seen[1]["backward"] is False and seen[1]["through"] is None
    assert seen[1]["level"] == 0 and seen[1]["precision"] == "certified-fast"
    capsys.readouterr()


def test_cli_writes_and_reports(tmp_path, capsys):
    out = str(tmp_path / "t.json")
    assert main(["tower", "--depth", "4", "--out", out]) == 0
    said = capsys.readouterr().out
    assert "tower: ok" in said and out in said
    assert json.load(open(out))["report"]["ok"] is True


def test_cli_stdout_json(capsys):
    assert main(["density", "--N", "300"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["N"] == 300


# strings the indent fix-ups must leave alone: brackets, commas, quotes,
# newlines, the separators themselves, non-ASCII text
_JSON_STR = st.text(st.sampled_from('}{][,:" \n\\aé€\U0001f600'), max_size=8) | st.text(max_size=4)
_JSON_SCALAR = (st.none() | st.booleans() | _JSON_STR | st.floats()
                | st.integers(-(2 ** 70), 2 ** 70)
                | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2 ** 64 + 1]))
_JSON = st.recursive(
    _JSON_SCALAR,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(_JSON_STR, inner, max_size=4)
                   # lists of scalar dicts, empty ones among them
                   | st.lists(st.dictionaries(_JSON_STR, _JSON_SCALAR, max_size=3), max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_json_text_is_the_stdlib_indented_encoding(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    [{"a": 1}, {}], [{}, {"a": 1}], [{"a": "},\n    {"}, {"b": 2}], {"x": [{}, []]},
    {1: [1], 2.5: {"k": None}}, {None: [True]}, {False: {}, 3: [1]}, (), {}, "\u2028", 2 ** 64,
])
def test_json_text_on_edge_values(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("argv", [
    ["tower", "--depth", "40"],
    ["tower", "--alpha", "[0;7,10,(8,12)]", "--depth", "40"],
    ["oracle", "--depth", "3", "--samples", "10"],
    ["heavy", "--N", "10000"],
    ["example", "--m", "2", "--kmax", "4", "--N", "5000"],
    ["leaf", "--ray", "0", "--N", "400"],
    ["density", "--m", "9", "--N", "10"],  # a horizon with no visit: null
])
def test_cli_prints_the_stdlib_encoding_of_the_report(capsys, argv):
    status = main(argv)
    printed = capsys.readouterr().out
    report = run(_config(_build_parser().parse_args(argv)))
    assert status == (0 if report["ok"] else 1)
    assert printed == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_cli_out_file_is_the_stdlib_encoding_of_header_and_report(tmp_path, capsys):
    out = str(tmp_path / "t.json")
    argv = ["tower", "--depth", "40", "--out", out]
    assert main(argv) == 0
    capsys.readouterr()
    config = _config(_build_parser().parse_args(argv))
    unwritten = ExperimentConfig(**dict(config.header()["config"], out=None))
    doc = {"header": config.header(), "report": run(unwritten)}
    assert open(out).read() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_cli_precision_flag(tmp_path):
    out = str(tmp_path / "g.csv")
    assert main(["density", "--N", "300", "--precision", "exact-only",
                 "--out", out]) == 0
    assert config_from_header(read_header(out)).precision == "exact-only"


def _more_levels(trace):
    trace.entry_level[10:] += 1  # one step of 0 or 2


def _moved_position(trace):
    trace.entry_x[5] = (trace.entry_x[5] + 1e-6) % 1.0


@pytest.mark.parametrize("doctor, failed", [
    (_more_levels, "levels_step_by_one"),
    (_moved_position, "prefix_agrees"),
])
def test_leaf_checks_catch_a_doctored_trace(monkeypatch, capsys, doctor, failed):
    honest = orbits.trace_ray

    def doctored(i, alpha, N, *, policy="certified"):
        trace = honest(i, alpha, N, policy=policy)
        if policy == "certified":
            doctor(trace)
        return trace

    monkeypatch.setattr(orbits, "trace_ray", doctored)
    rep = run(ExperimentConfig(kind="leaf", N=100, ray=0))
    assert rep[failed] is False and rep["ok"] is False
    assert main(["leaf", "--ray", "0", "--N", "100"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("through", [None, "(1+a)/2"])
def test_leaf_checks_catch_a_summary_off_the_traced_levels(monkeypatch, precision, through):
    # sums read 100 levels off pass both retraces, which trace the same
    # honest leaf; only the summary's check of the retraced levels fails
    honest = orbits._orbit

    def shifted(*args, **kwargs):
        (lo, counts, final), *rest = honest(*args, **kwargs)
        return ((lo + 100, counts, final), *rest)

    monkeypatch.setattr(orbits, "_orbit", shifted)
    where = {"ray": 0} if through is None else {"through": through, "backward": True}
    rep = run(ExperimentConfig(kind="leaf", N=100, precision=precision, **where))
    assert rep["levels_step_by_one"] is True
    assert rep["prefix_agrees"] is False and rep["ok"] is False


def test_cli_refuses_a_point_from_another_field(capsys):
    argv = ["leaf", "--through", "sqrt(2)/3", "--precision", "exact-only",
            "--N", "5"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("rotn: error: cannot mix ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _fresh_python(*argv):
    # a fresh process with a deadline, so a run that hangs fails here
    import os
    import subprocess
    import sys

    import rotn

    src = os.path.dirname(os.path.dirname(os.path.abspath(rotn.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=30, env=dict(os.environ, PYTHONPATH=path))


def _refused_in_one_line(said, *args):
    out = _fresh_python("-m", "rotn.cli", *args)
    assert out.returncode == 2
    assert out.stderr.startswith("rotn: error: ") and out.stderr.count("\n") == 1
    assert said in out.stderr


@pytest.mark.parametrize("expr, said", [
    # factoring this 61-digit semiprime used to run for minutes
    ("sqrt(4000000000000000000000000000249000000000000000000000000001197)",
     "cannot mix sqrt(10) with sqrt("),
    ("a**100000000", "is above the limit 10000"),
], ids=["sqrt-of-a-semiprime", "huge-exponent"])
def test_cli_parses_a_point_in_bounded_time(expr, said):
    _refused_in_one_line(said, "leaf", "--through", expr, "--N", "3")


@pytest.mark.parametrize("args, said", [
    # a 345-bit cofactor of the discriminant is left after trial division
    (["heavy", "--alpha",
      "[0;(1234567890123456789,9876543210987654321,1111111111111111111)]", "--N", "10"],
     "above the limit of 2^128"),
    (["heavy", "--alpha",
      "[0;(12345678901234567890123,98765432109876543210987,"
      "11111111111111111111111,22222222222222222222223)]", "--N", "10"],
     "above the limit of 2^128"),
    # 3.1e9 and 2.3e8 predicted oracle steps: about 2 h and 9 min of walking;
    # the count stops at the first level past the limit
    (["oracle", "--depth", "12", "--samples", "1"], "predicts at least 5.0e+08 steps"),
    (["oracle", "--depth", "3", "--samples", "1000000"],
     "predicts at least 2.3e+08 steps"),
    (["oracle", "--depth", "400", "--samples", "1"], "predicts at least 5.0e+08 steps"),
    # a step count past the float range used to end in an OverflowError
    (["oracle", "--depth", "2", "--samples", str(10 ** 400)],
     "predicts at least 3.3e+401 steps"),
    # towers: depth 1000 takes about a second, and each level costs more
    (["tower", "--depth", "100000"], "depth 100000 is above the limit of 1000"),
    (["oracle", "--depth", "100000", "--samples", "1"],
     "depth 100000 is above the limit of 1000"),
    (["example", "--kmax", "100000", "--N", "1000"],
     "k_max 100000 is above the limit of 500"),
    # counts and orbit indices are int64, whichever route reads the signs
    (["heavy", "--alpha", "[0;5,(6)]", "--N", str(2 ** 63)],
     "N 9223372036854775808 is above the limit of 2^63 - 1"),
    (["density", "--N", str(10 ** 4000)], "is above the limit of 2^63 - 1"),
    (["leaf", "--ray", "0", "--N", str(2 ** 63)],
     "N 9223372036854775808 is above the limit of 2^63 - 1"),
    # entry levels and shifted times are int64 too; these used to end in
    # an OverflowError traceback and exit 1, the failed-check status
    (["leaf", "--ray", str(10 ** 20), "--N", "10"],
     "ray 100000000000000000000 is outside the limit of +-2^62"),
    (["leaf", "--ray", str(-10 ** 20), "--N", "10", "--precision", "exact-only"],
     "ray -100000000000000000000 is outside the limit of +-2^62"),
    (["leaf", "--through", "1/3", "--level", str(10 ** 20), "--N", "10"],
     "level 100000000000000000000 is outside the limit of +-2^62"),
    (["density", "--k", str(10 ** 20), "--N", "10"],
     "|k| + N = 100000000000000000010 is above the limit of 2^63 - 1"),
    (["density", "--k", str(-10 ** 20), "--N", "10"],
     "|k| + N = 100000000000000000010 is above the limit of 2^63 - 1"),
    # the scan route used to exit 2 with numpy's array-dimension error
    (["density", "--alpha", "[0;(2)]", "--k", str(10 ** 20), "--N", "10"],
     "|k| + N = 100000000000000000010 is above the limit of 2^63 - 1"),
    # scans whose arrays numpy cannot allocate, 17 B a point; these used
    # to exit 2 with numpy's "array is too big", naming no option
    (["density", "--alpha", "[0;(2)]", "--N", str(2 ** 62), "--precision", "exact-only"],
     "--N 4611686018427387904: a scan of 4611686018427387905 points needs"),
    (["density", "--alpha", "[0;(2)]", "--k", str(2 ** 62), "--N", "10",
      "--precision", "exact-only"],
     "--N 10 and --k 4611686018427387904: a scan of 4611686018427387915 points"),
    # an exact-only heavy or example folds its walk and allocates nothing it
    # could refuse: its step budget refuses it before the first step
    (["heavy", "--alpha", "[0;(2)]", "--N", str(2 ** 62), "--precision", "exact-only"],
     "--N 4611686018427387904: an exact walk of 4611686018427387904 steps is above the "
     "budget of 1000000000 steps"),
    (["example", "--N", str(10 ** 9 + 1), "--precision", "exact-only"],
     "--N 1000000001: an exact walk of 1000000001 steps is above the budget of 1000000000"),
    (["leaf", "--through", "1/3", "--N", str(10 ** 9 + 1), "--precision", "exact-only"],
     "--N 1000000001: an exact walk of 1000000001 steps is above the budget of 1000000000"),
    (["leaf", "--through", "1/3", "--N", str(2 ** 62), "--out", "/dev/null"],
     "--N 4611686018427387904: a scan of 4611686018427387905 points needs"),
    # on the tower, --out needs the scan of every step
    (["heavy", "--alpha", "[0;5,(6)]", "--N", str(2 ** 62), "--out", "/dev/null"],
     "--N 4611686018427387904: a scan of 4611686018427387905 points needs"),
], ids=["three-19-digit-coefficients", "four-23-digit-coefficients",
        "oracle-depth-12", "oracle-a-million-samples", "oracle-depth-400",
        "oracle-past-floats", "tower-depth", "oracle-depth", "example-kmax",
        "heavy-past-int64", "density-past-int64", "leaf-past-int64",
        "leaf-ray-past-int64", "exact-leaf-ray-past-int64", "leaf-level-past-int64",
        "density-k-past-int64", "density-negative-k-past-int64",
        "scan-density-k-past-int64", "scan-density-past-numpy", "scan-density-k-past-numpy",
        "exact-heavy-past-budget", "exact-example-past-budget", "exact-leaf-past-budget",
        "leaf-through-past-numpy",
        "tower-heavy-out-past-numpy"])
def test_cli_refuses_unbounded_work_in_bounded_time(args, said):
    _refused_in_one_line(said, *args)


def test_oracle_refuses_before_building_the_whole_tower():
    # a fresh process, so no cached tower makes the refusal fast
    code = ("import time\n"
            "from rotn.cli import main\n"
            "t = time.perf_counter()\n"
            "status = main(['oracle', '--depth', '1000', '--samples', '1'])\n"
            "print(status, time.perf_counter() - t)\n")
    out = _fresh_python("-c", code)
    status, seconds = out.stdout.split()
    assert status == "2" and "predicts at least" in out.stderr
    assert float(seconds) < 0.3


# modules a start-up of rotn.cli and an exact run must not load: the
# records are plain slotted classes, and only seed expressions parse code
_HEAVY_STDLIB = ("dataclasses", "inspect", "ast")


def test_exact_runs_never_import_numpy():
    # tower, oracle and fast_birkhoff are exact arithmetic on words and
    # surds; only the kinds that read an orbit import numpy
    code = ("import sys, rotn.cli\n"
            "from rotn.exactreal import parse_cf\n"
            "from rotn.renorm import fast_birkhoff\n"
            "cf = parse_cf('[0;5,(6)]')\n"
            "cf.value\n"
            "assert rotn.cli.main(['tower', '--depth', '10']) == 0\n"
            "assert rotn.cli.main(['oracle', '--depth', '3', '--samples', '1']) == 0\n"
            "assert fast_birkhoff(cf, 10**15) == -6\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
            "print(sorted(m for m in %r if m in sys.modules))\n" % (_HEAVY_STDLIB,))
    out = _fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-2:] == ["[]", "[]"]


def test_exact_kinds_never_call_certified(monkeypatch):
    # tower and oracle decide every comparison in the field; only scans
    # read certified floats
    def refuse(self):
        raise AssertionError("SurdReal.certified called on %s" % (self.exact_str(),))

    monkeypatch.setattr(SurdReal, "certified", refuse)
    assert main(["tower", "--depth", "10"]) == 0
    assert main(["oracle", "--depth", "3", "--samples", "2"]) == 0


def test_a_numpy_run_never_imports_dataclasses():
    # numpy itself loads inspect and ast, so only dataclasses is rotn's to avoid
    code = ("import sys, rotn.cli\n"
            "status = rotn.cli.main(['heavy', '--alpha', '[0;5,(6)]', '--N', '1000'])\n"
            "assert status in (0, 1), status\n"
            "assert 'numpy' in sys.modules\n"
            "print('dataclasses' in sys.modules)\n")
    out = _fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


def test_small_runs_never_import_sympy():
    code = ("import sys, rotn.cli\n"
            "from rotn.exactreal import parse_cf\n"
            "parse_cf('[0;5,(6)]').value\n"
            "assert rotn.cli.main(['tower', '--depth', '10']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))\n")
    out = _fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
