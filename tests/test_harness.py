"""Experiment runner: configs, file round-trips, determinism, exit codes."""

import json
import math

import pytest

from rotn.cli import main
from rotn.exactreal import SurdReal, parse_cf
from rotn.harness import (
    PRECISIONS,
    ExperimentConfig,
    config_from_header,
    parse_point,
    read_header,
    run,
)

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
    assert math.isnan(empty["horizons"][0]["max_gap"])


def test_run_example_report(tmp_path):
    out = str(tmp_path / "example.json")
    rep = run(ExperimentConfig(kind="example", m=2, k_max=4, N=5000, out=out))
    assert rep["ok"] and rep["formulas_ok"]
    assert rep["max_forward_sum"] == -1
    assert rep["symmetric_sums"] and rep["witness_prefix_ok"]
    assert rep["block_maxima"] == [-1] * 4
    assert config_from_header(read_header(out)).k_max == 4


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
# determinism


def test_exact_runs_are_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run(ExperimentConfig(kind="density", N=3000, out=a, precision="exact-only"))
    run(ExperimentConfig(kind="density", N=3000, out=b, precision="exact-only"))
    payload = lambda p: open(p, "rb").read().split(b"\n", 1)[1]
    assert payload(a) == payload(b)
    run(ExperimentConfig(kind="density", N=3000, out=a, precision="exact-only"))
    assert payload(a) == payload(b)


def test_leaf_exact_determinism(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for p in (a, b):
        run(ExperimentConfig(kind="leaf", N=200, through="(1+a)/2", level=2, out=p,
                             precision="exact-only"))
    payload = lambda q: open(q, "rb").read().split(b"\n", 1)[1]
    assert payload(a) == payload(b)


# ---------------------------------------------------------------------------
# the command line


def test_cli_exit_codes(tmp_path, capsys):
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
    # 10^18 steps cannot be allocated on any machine: one line, no traceback
    huge = str(10**18)
    for argv in (["heavy", "--N", huge], ["heavy", "--N", huge, "--precision", "exact-only"],
                 ["density", "--N", huge], ["leaf", "--ray", "0", "--N", huge],
                 ["example", "--N", huge]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("rotn: error: ") and err.count("\n") == 1
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
    from rotn import harness

    honest = harness.trace_ray

    def doctored(i, alpha, N, *, policy="certified"):
        trace = honest(i, alpha, N, policy=policy)
        if policy == "certified":
            doctor(trace)
        return trace

    monkeypatch.setattr(harness, "trace_ray", doctored)
    rep = run(ExperimentConfig(kind="leaf", N=100, ray=0))
    assert rep[failed] is False and rep["ok"] is False
    assert main(["leaf", "--ray", "0", "--N", "100"]) == 1
    capsys.readouterr()


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
    # 3.1e9 and 2.3e8 predicted oracle steps: about 2 h and 9 min of walking
    (["oracle", "--depth", "12", "--samples", "1"], "predicts 3.1e+09 steps"),
    (["oracle", "--depth", "3", "--samples", "1000000"], "predicts 2.3e+08 steps"),
], ids=["three-19-digit-coefficients", "four-23-digit-coefficients",
        "oracle-depth-12", "oracle-a-million-samples"])
def test_cli_refuses_unbounded_work_in_bounded_time(args, said):
    _refused_in_one_line(said, *args)


def test_small_runs_never_import_sympy():
    code = ("import sys, rotn.cli\n"
            "from rotn.exactreal import parse_cf\n"
            "parse_cf('[0;5,(6)]').value\n"
            "assert rotn.cli.main(['tower', '--depth', '10']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))\n")
    out = _fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
