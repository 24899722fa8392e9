"""Experiment runner: reproducible command-line runs over the library.

Each run_* function performs one experiment, returns a JSON-friendly
report dict, and optionally writes it to disk.  Output files are
self-describing: a JSON header that round-trips the full configuration,
then the payload.  CSV-shaped outputs put the header on a single
leading comment line; report-shaped outputs are one JSON document with
the header inside.  Under the exact-only policy identical configs give
byte-identical payload bytes.
"""

from __future__ import annotations

import ast
import json
import math
import random
from dataclasses import asdict, dataclass, fields
from itertools import islice
from typing import Optional, Union

import numpy as np

from . import __version__
from .circle import max_gap, visit_set
from .exactreal import HALF, ONE, ZERO, CFNumber, SurdReal, parse_cf
from .foliation import example_m_formulas, trace_leaf_through, trace_ray
from .renorm import (
    oracle_first_return,
    predicted_return_word,
    rationals_strictly_between,
    tower,
    verify_bounds,
    verify_chains,
)
from .scan import orbit_scan
from .words import expand, iter_letters

KINDS = ("tower", "density", "example", "leaf", "heavy", "oracle")
PRECISIONS = ("certified-fast", "exact-only")
# leaf visits retraced under the other policy; small enough that the
# check stays cheap next to a long certified trace
_LEAF_CHECK_VISITS = 256


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one run.

    The alpha literal and the leaf seed stay in their surface syntax so
    a written header parses back to an equal config.
    """

    kind: str
    alpha: str = "[0;5,(6)]"
    depth: int = 0
    N: int = 0
    m: int = 0
    k: int = 0
    k_max: int = 0
    samples: int = 0
    seed: int = 0
    ray: Optional[int] = None
    through: Optional[str] = None
    level: int = 0
    backward: bool = False
    out: Optional[str] = None
    precision: str = "certified-fast"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown experiment kind %r" % (self.kind,))
        if self.precision not in PRECISIONS:
            raise ValueError(
                "precision must be one of %s, got %r" % (PRECISIONS, self.precision)
            )
        for name in ("depth", "N", "k_max", "samples"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be >= 0" % (name,))

    @property
    def policy(self) -> str:
        """The scan policy the precision flag selects."""
        return "exact" if self.precision == "exact-only" else "certified"

    def header(self) -> dict:
        return {"tool": "rotn", "version": __version__, "config": asdict(self)}


def config_from_header(header: dict) -> ExperimentConfig:
    """Rebuild the config a header was written from."""
    raw = dict(header["config"])
    known = {f.name for f in fields(ExperimentConfig)}
    extra = set(raw) - known
    if extra:
        raise ValueError("header carries unknown config fields %s" % (sorted(extra),))
    return ExperimentConfig(**raw)


# ---------------------------------------------------------------------------
# output plumbing


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # shortest round-trip form, stable across runs
    return str(v)


def write_csv(path: str, config: ExperimentConfig, columns: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# %s\n" % json.dumps(config.header(), sort_keys=True))
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def write_json(path: str, config: ExperimentConfig, report: dict) -> None:
    doc = {"header": config.header(), "report": report}
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_header(path: str) -> dict:
    """Parse the self-describing header back out of an output file."""
    with open(path, "r") as fh:
        first = fh.readline()
        if first.startswith("# "):
            return json.loads(first[2:])
        doc = json.loads(first + fh.read())
    return doc["header"]


# ---------------------------------------------------------------------------
# leaf seeds


def parse_point(expr: str, alpha: SurdReal) -> SurdReal:
    """Evaluate a seed expression like "(1+a)/2" to an exact point.

    Grammar: integers, the name `a` (the rotation number), sqrt(int),
    +, -, *, /, ** with integer exponents, and parentheses.
    """
    try:
        node = ast.parse(expr, mode="eval").body
    except SyntaxError as err:
        raise ValueError("cannot parse point %r: %s" % (expr, err)) from None

    def ev(n):
        if isinstance(n, ast.Constant) and isinstance(n.value, int):
            return SurdReal(n.value)
        if isinstance(n, ast.Name) and n.id == "a":
            return alpha
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, (ast.UAdd, ast.USub)):
            v = ev(n.operand)
            return v if isinstance(n.op, ast.UAdd) else -v
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) \
                and n.func.id == "sqrt" and len(n.args) == 1 and not n.keywords:
            arg = n.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, int):
                return SurdReal.root(arg.value)
            raise ValueError("sqrt() takes an integer literal")
        if isinstance(n, ast.BinOp):
            a, b = ev(n.left), ev(n.right)
            if isinstance(n.op, ast.Add):
                return a + b
            if isinstance(n.op, ast.Sub):
                return a - b
            if isinstance(n.op, ast.Mult):
                return a * b
            if isinstance(n.op, ast.Div):
                return a / b
            if isinstance(n.op, ast.Pow):
                if isinstance(n.right, ast.Constant) and isinstance(n.right.value, int):
                    return a ** n.right.value
                raise ValueError("** needs an integer literal exponent")
        raise ValueError("unsupported syntax in point %r" % (expr,))

    try:
        return ev(node)
    except ZeroDivisionError:
        raise ValueError("division by zero in point %r" % (expr,)) from None


def _alpha_cf(alpha: Union[str, CFNumber]) -> CFNumber:
    return parse_cf(alpha) if isinstance(alpha, str) else alpha


# ---------------------------------------------------------------------------
# experiments


def run_tower(alpha: Union[str, CFNumber], depth: int, *,
              out: Optional[str] = None) -> dict:
    """Build the tower and verify every stats inequality along it."""
    cf = _alpha_cf(alpha)
    cfg = ExperimentConfig(kind="tower", alpha=str(cf), depth=depth, out=out)
    levels = tower(cf, depth)

    bound_rows = []
    for parent, child in zip(levels, levels[1:]):
        bound_rows.extend(verify_bounds(parent, child, strict=False))
    chain_rows = verify_chains(levels, strict=False)

    def level_entry(lvl):
        return {
            "index": lvl.index,
            "interval_left": lvl.interval.left.exact_str(),
            "interval_right": lvl.interval.right.exact_str(),
            "length": float(lvl.interval.length),
            "length_exact": lvl.interval.length.exact_str(),
            "beta": float(lvl.beta),
            "beta_exact": lvl.beta.exact_str(),
            "beta_cf": str(lvl.beta_cf),
            "n_half": lvl.n_half,
            "len_plus": lvl.f_plus.length,
            "len_minus": lvl.f_minus.length,
            "len_zero": lvl.f_zero.length,
            **lvl.stats,
        }

    def check_entry(row):
        return {"level": row.level, "check": row.name, "value": row.lhs, "ok": row.ok}

    ok = all(r.ok for r in bound_rows) and all(r.ok for r in chain_rows)
    report = {
        "alpha": str(cf),
        "depth": depth,
        "levels": [level_entry(l) for l in levels],
        "bounds": [check_entry(r) for r in bound_rows],
        "chains": [check_entry(r) for r in chain_rows],
        "ok": ok,
    }
    if out:
        write_json(out, cfg, report)
    return report


def _gap_ladder(N: int) -> list:
    horizons = {N} | {10 ** e for e in range(2, 9) if 10 ** e < N}
    return sorted(horizons)


def run_density(alpha: Union[str, CFNumber], m: int, k: int, N: int, *,
                out: Optional[str] = None,
                precision: str = "certified-fast") -> dict:
    """How the level-m visit positions fill the circle as N grows."""
    cf = _alpha_cf(alpha)
    cfg = ExperimentConfig(kind="density", alpha=str(cf), m=m, k=k, N=N,
                           out=out, precision=precision)
    vs = visit_set(HALF, cf.value, m, N, k=k, policy=cfg.policy)

    rows = []
    for h in _gap_ladder(N):
        cnt = int(np.searchsorted(vs.times, h, side="right"))
        gap = max_gap(vs.positions[:cnt]) if cnt else math.nan
        first = int(vs.times[0]) if cnt else None
        rows.append({"N": h, "count": cnt, "first_time": first, "max_gap": gap})

    # The visit set only grows with the horizon, so the gap cannot rise;
    # and m = 0 always holds at n = 0.
    gaps = [r["max_gap"] for r in rows if r["count"]]
    ok = all(b <= a for a, b in zip(gaps, gaps[1:]))
    if m == 0 and vs.count == 0:
        ok = False

    report = {**vs.summary(), "escalations": vs.escalations, "horizons": rows,
              "ok": ok}
    if out:
        write_csv(out, cfg, ["N", "count", "first_time", "max_gap"],
                  [(r["N"], r["count"], r["first_time"], r["max_gap"]) for r in rows])
    return report


def run_example(m: int, k_max: int, N: int, *,
                out: Optional[str] = None,
                precision: str = "certified-fast") -> dict:
    """The bounded-above orbit family: formulas plus an orbit audit."""
    rep = example_m_formulas(m, k_max, strict=False)
    cfg = ExperimentConfig(kind="example", alpha=str(rep.alpha), m=m,
                           k_max=k_max, N=N, out=out, precision=precision)

    report = {
        "alpha": str(rep.alpha),
        "m": m,
        "k_max": k_max,
        "x": rep.x.exact_str(),
        "rows": [
            {"name": r.name, "level": r.level, "got": r.got,
             "expected": r.expected, "ok": r.ok}
            for r in rep.rows
        ],
        "witness_length": rep.witness.length,
        "block_maxima": rep.block_maxima,
        "formulas_ok": all(r.ok for r in rep.rows),
    }

    if N >= 1:
        av = rep.alpha.value
        fwd = orbit_scan(rep.x, av, N, policy=cfg.policy)
        n_sym = min(N, 10 ** 5)
        back = orbit_scan(rep.x, av, n_sym, direction=-1, policy=cfg.policy)
        report["max_forward_sum"] = int(fwd.sums[1:].max())
        report["symmetric_sums"] = bool(
            np.array_equal(back.sums[1: n_sym + 1], fwd.sums[1: n_sym + 1])
        )
        n_pref = min(N, 20000)
        prefix = list(islice(iter_letters(rep.witness), n_pref))
        report["witness_prefix_ok"] = prefix == list(fwd.signs[:n_pref])
        report["ok"] = (report["formulas_ok"] and rep.ok
                        and report["max_forward_sum"] == -1
                        and report["symmetric_sums"]
                        and report["witness_prefix_ok"])
    else:
        report["ok"] = report["formulas_ok"] and rep.ok

    if out:
        write_json(out, cfg, report)
    return report


def run_leaf(alpha: Union[str, CFNumber], N: int, *,
             ray: Optional[int] = None,
             through: Optional[str] = None,
             level: int = 0,
             backward: bool = False,
             out: Optional[str] = None,
             precision: str = "certified-fast") -> dict:
    """Trace one leaf: a singular ray or the leaf through a given point.

    The run passes when consecutive entry levels differ by exactly 1 and
    the other precision, retracing the first visits, agrees with them:
    equal levels, and positions within the certified radius.
    """
    if (ray is None) == (through is None):
        raise ValueError("give exactly one of ray=... or through=...")
    cf = _alpha_cf(alpha)
    cfg = ExperimentConfig(kind="leaf", alpha=str(cf), N=N, ray=ray,
                           through=through, level=level, backward=backward,
                           out=out, precision=precision)
    if ray is not None:
        if backward:
            raise ValueError("rays only go forward; trace a leaf through a point instead")

        def trace_for(n, policy):
            return trace_ray(ray, cf.value, n, policy=policy)
    else:
        x0 = parse_point(through, cf.value)

        def trace_for(n, policy):
            return trace_leaf_through(x0, level, cf.value, n,
                                      direction=-1 if backward else 1,
                                      policy=policy)

    trace = trace_for(N, cfg.policy)
    # the other policy retraces a short prefix; the two must agree on it
    other = trace_for(min(N, _LEAF_CHECK_VISITS),
                      "certified" if cfg.policy == "exact" else "exact")
    cert, exact = (other, trace) if cfg.policy == "exact" else (trace, other)
    k = other.visits
    steps = np.diff(trace.entry_level)
    levels_step_by_one = bool(
        steps.size == 0
        or (steps.min() >= -1 and steps.max() <= 1
            and np.count_nonzero(steps) == steps.size)
    )
    # an exact entry_x is a float shadow, off by at most one rounding
    prefix_agrees = bool(
        np.array_equal(cert.entry_level[:k], exact.entry_level[:k])
        and np.all(np.abs(cert.entry_x[:k] - exact.entry_x[:k])
                   <= cert.radius_bound + 2.0 ** -52)
    )
    report = {**trace.summary(), "policy": cfg.policy,
              "levels_step_by_one": levels_step_by_one,
              "prefix_visits_checked": k, "prefix_agrees": prefix_agrees,
              "ok": levels_step_by_one and prefix_agrees}
    if out:
        step = trace.direction
        rows = (
            (trace.start_index + step * i, trace.entry_x[i], int(trace.entry_level[i]))
            for i in range(trace.visits)
        )
        write_csv(out, cfg, ["n", "x", "level"], rows)
    return report


def run_heavy(alpha: Union[str, CFNumber], N: int, *,
              out: Optional[str] = None,
              precision: str = "certified-fast") -> dict:
    """Contrast run: count sign violations of S_n(1/2) < 0 for 1 <= n <= N."""
    cf = _alpha_cf(alpha)
    cfg = ExperimentConfig(kind="heavy", alpha=str(cf), N=N, out=out,
                           precision=precision)
    if N < 1:
        raise ValueError("need N >= 1, got %r" % (N,))
    scan = orbit_scan(HALF, cf.value, N, policy=cfg.policy)
    sums = scan.sums[1:]
    violations = int(np.count_nonzero(sums >= 0))
    report = {
        "alpha": str(cf),
        "N": N,
        "violations": violations,
        "min_sum": int(sums.min()),
        "max_sum": int(sums.max()),
        "final_sum": int(sums[-1]),
        "escalations": int(scan.escalated.size),
        "ok": violations == 0,
    }
    if out:
        rows = ((n, scan.positions[n], int(scan.sums[n])) for n in range(N + 1))
        write_csv(out, cfg, ["n", "position", "S_n"], rows)
    return report


def run_oracle(alpha: Union[str, CFNumber], depth: int, samples: int, *,
               seed: int = 0,
               out: Optional[str] = None) -> dict:
    """Dual-route check: predicted return words vs simulated first returns.

    For every level 2..depth and each of its three case regions, draws
    `samples` exact rational starts strictly inside the region, then
    demands the substitution word equal the simulated sign word letter
    for letter and both routes land on the same exact point.
    """
    cf = _alpha_cf(alpha)
    if depth < 2:
        raise ValueError("oracle needs depth >= 2, got %r" % (depth,))
    if samples < 1:
        raise ValueError("need samples >= 1, got %r" % (samples,))
    cfg = ExperimentConfig(kind="oracle", alpha=str(cf), depth=depth,
                           samples=samples, seed=seed, out=out,
                           precision="exact-only")
    levels = tower(cf, depth)
    rng = random.Random(seed)

    rows = []
    total = matched = 0
    for lvl in levels[1:]:
        if lvl.beta.sign() > 0:
            regions = [("plus", ZERO, HALF),
                       ("minus", HALF, ONE - lvl.beta),
                       ("minus_zero", ONE - lvl.beta, ONE)]
        else:
            regions = [("plus_zero", ZERO, -lvl.beta),
                       ("plus", -lvl.beta, HALF),
                       ("minus", HALF, ONE)]
        for name, lo, hi in regions:
            good = 0
            for q in rationals_strictly_between(lo, hi, samples, rng):
                x = lvl.interval.from_local(SurdReal.from_fraction(q))
                rec = oracle_first_return(lvl, x)
                pred = predicted_return_word(lvl, x)
                if (tuple(expand(pred)) == rec.word
                        and lvl.return_map(x) == rec.landing):
                    good += 1
            rows.append({"level": lvl.index, "region": name,
                         "samples": samples, "matches": good})
            total += samples
            matched += good

    report = {
        "alpha": str(cf),
        "depth": depth,
        "samples_per_region": samples,
        "regions": rows,
        "total": total,
        "matches": matched,
        "ok": matched == total,
    }
    if out:
        write_json(out, cfg, report)
    return report


def run(config: ExperimentConfig) -> dict:
    """Dispatch a parsed config to its experiment."""
    if config.kind == "tower":
        return run_tower(config.alpha, config.depth, out=config.out)
    if config.kind == "density":
        return run_density(config.alpha, config.m, config.k, config.N,
                           out=config.out, precision=config.precision)
    if config.kind == "example":
        return run_example(config.m, config.k_max, config.N,
                           out=config.out, precision=config.precision)
    if config.kind == "leaf":
        return run_leaf(config.alpha, config.N, ray=config.ray,
                        through=config.through, level=config.level,
                        backward=config.backward, out=config.out,
                        precision=config.precision)
    if config.kind == "heavy":
        return run_heavy(config.alpha, config.N, out=config.out,
                         precision=config.precision)
    return run_oracle(config.alpha, config.depth, config.samples,
                      seed=config.seed, out=config.out)
