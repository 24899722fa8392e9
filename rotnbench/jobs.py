"""Seeded job mixes for the four workloads, and the independent checks.

Every job goes through rotn's public surface: ``rotn.cli.main(argv)``
for subcommands and ``rotn.renorm.fast_birkhoff`` for the queries that
have no subcommand.  A job's output is never trusted on its own
``ok``: each check recomputes what it can by another route.

- Orbit sums of 1/2 for an admissible alpha are prefix sums of F_minus
  at a deep enough tower level, so the renormalization tower gives exact
  final sums and exact prefix extrema without scanning.
- Certified scan output is compared with ``orbit_scan(policy="exact")``
  on a seeded window, and exact walker output with the certified scan.
- Leaf levels must move by exactly 1 per visit.
- ``fast_birkhoff`` must equal scan sums for n <= 10^5.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import signal
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from rotn import cli
from rotn.exactreal import SurdReal, parse_cf
from rotn.foliation import example_m_formulas
from rotn.harness import parse_point
from rotn.renorm import fast_birkhoff, tower
from rotn.scan import orbit_scan
from rotn.words import prefix_sum_at

WORKLOADS = ("scan_long", "scan_to_file", "exact_walk", "tower_queries")

HALF = SurdReal(1, 0, 2)
TOWER_DEPTH = 40
# Sizes are chosen so that the job kinds of one workload take similar
# times: then job_s percentiles do not sit on the edge between two kinds.
SCAN_LONG_N = 5_000_000
SCAN_LONG_LEAF_N = 2_500_000  # a certified leaf keeps more arrays per step
FILE_ROWS = 25_000
EXACT_HEAVY_N = 50_000
EXACT_LEAF_N = 2_000
QUERY_BATCHES = 3        # per alpha; with one tower job, job_s.p50 falls
QUERIES_PER_BATCH = 300  # among query batches and p90 among tower jobs
ALPHAS_PER_ROUND = 4
QUERY_MAX = 10 ** 15
QUERY_SCAN_N = 10 ** 5   # queries up to here are compared with scan sums
WINDOW = 4_000           # steps in each exact comparison window
DENSITY_EXACT_N = 10_000  # horizons up to here are recomputed exactly


class CheckFailed(Exception):
    pass


class OpTimeout(Exception):
    pass


@contextlib.contextmanager
def budget(seconds: float):
    """Raise OpTimeout in the main thread if the block runs past `seconds`."""
    def on_alarm(signum, frame):
        raise OpTimeout("exceeded its %gs budget" % seconds)

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def expect(cond: bool, what: str, *args) -> None:
    if not cond:
        raise CheckFailed(what % args if args else what)


# ---------------------------------------------------------------------------
# inputs


def admissible_alpha(rng: random.Random, *, a1_max: int, c_max: int,
                     period_max: int) -> str:
    """A literal [0;a1,(c...)] with a1 odd >= 5 and every c even >= 6."""
    a1 = rng.randrange(5, a1_max + 1, 2)
    period = [rng.randrange(6, c_max + 1, 2) for _ in range(rng.randint(1, period_max))]
    return "[0;%d,(%s)]" % (a1, ",".join(map(str, period)))


def scan_alpha(rng):
    return admissible_alpha(rng, a1_max=15, c_max=20, period_max=2)


def walk_alpha(rng):
    # small coefficients keep return times, and so oracle jobs, short
    return admissible_alpha(rng, a1_max=9, c_max=10, period_max=2)


def tower_alpha(rng):
    return admissible_alpha(rng, a1_max=21, c_max=30, period_max=3)


def surd_point(rng) -> str:
    """(p+q*a)/r with q/r not an integer, so the point is off the orbit of 0."""
    r = rng.randint(2, 9)
    q = rng.choice([q for q in range(1, r) if math.gcd(q, r) == 1])
    return "(%d+%d*a)/%d" % (rng.randrange(r), q, r)


@dataclass
class Job:
    kind: str                     # experiment name, or "queries"
    argv: list                    # rotn argv; empty for queries
    params: dict
    out: Optional[str] = None

    def with_out(self, path: str) -> "Job":
        """The same job writing to another file."""
        argv = list(self.argv)
        argv[argv.index("--out") + 1] = path
        return Job(self.kind, argv, self.params, path)


def _cli_job(kind: str, params: dict, out: Optional[str] = None,
             exact: bool = False) -> Job:
    argv = [kind]
    for key, flag in (("alpha", "--alpha"), ("m", "--m"), ("k", "--k"),
                      ("kmax", "--kmax"), ("ray", "--ray"),
                      ("through", "--through"), ("level", "--level"),
                      ("depth", "--depth"), ("samples", "--samples"),
                      ("seed", "--seed"), ("N", "--N")):
        if key in params:
            argv += [flag, str(params[key])]
    if params.get("backward"):
        argv.append("--backward")
    if out:
        argv += ["--out", out]
    if exact:
        argv += ["--precision", "exact-only"]
    return Job(kind, argv, dict(params, exact=exact), out)


class JobStream:
    """The seeded sequence of rounds of one workload.

    A round is one pass over the workload's job kinds with fresh inputs
    of fixed size, so rounds cost about the same whatever the seed.
    """

    def __init__(self, workload: str, seed: int, out_dir: str):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % (workload,))
        self.workload = workload
        self.rng = random.Random("rotnbench:%s:%d" % (workload, seed))
        self.out_dir = out_dir
        self.rounds = 0
        self.used_alphas: set = set()
        self._next = self._make_round()

    def _path(self, i: int, kind: str) -> str:
        return os.path.join(self.out_dir, "r%d-%d-%s.csv" % (self.rounds, i, kind))

    def _fresh_tower_alpha(self) -> str:
        """A tower alpha not used before in this run, as a normalized literal."""
        while True:
            a = str(parse_cf(tower_alpha(self.rng)))  # (6,6) and (6) are one key
            if a not in self.used_alphas:
                self.used_alphas.add(a)
                return a

    def _make_round(self) -> list:
        return getattr(self, "_" + self.workload)(self.rng)

    def next_round(self) -> list:
        jobs, self._next = self._next or self._make_round(), None
        self.rounds += 1
        return jobs

    def first_alpha(self) -> str:
        """The alpha of the first job that takes one: the run's first parse_cf."""
        return next(j.params["alpha"] for j in self._next if "alpha" in j.params)

    def _scan_long(self, rng):
        N = SCAN_LONG_N
        return [
            _cli_job("heavy", {"alpha": scan_alpha(rng), "N": N}),
            _cli_job("density", {"alpha": scan_alpha(rng), "m": rng.randint(-3, 3),
                                 "k": rng.randint(0, 3), "N": N}),
            _cli_job("example", {"m": rng.randint(2, 5), "kmax": rng.randint(6, 10),
                                 "N": N}),
            _cli_job("leaf", {"alpha": scan_alpha(rng), "ray": rng.randint(-5, 5),
                              "N": SCAN_LONG_LEAF_N}),
        ]

    def _scan_to_file(self, rng):
        N = FILE_ROWS
        return [
            _cli_job("heavy", {"alpha": scan_alpha(rng), "N": N}, self._path(0, "heavy")),
            _cli_job("density", {"alpha": scan_alpha(rng), "m": rng.randint(-3, 3),
                                 "k": rng.randint(0, 3), "N": N}, self._path(1, "density")),
            _cli_job("leaf", {"alpha": scan_alpha(rng), "ray": rng.randint(-5, 5),
                              "N": N}, self._path(2, "ray")),
            _cli_job("leaf", {"alpha": scan_alpha(rng), "through": surd_point(rng),
                              "level": rng.randint(-5, 5),
                              "backward": rng.random() < 0.5, "N": N},
                     self._path(3, "through")),
        ]

    def _exact_walk(self, rng):
        return [
            # one depth: mixing depths 3 and 4 made the oracle's cost bimodal
            _cli_job("oracle", {"alpha": walk_alpha(rng), "depth": 4, "samples": 2,
                                "seed": rng.randrange(10 ** 6)}),
            _cli_job("leaf", {"alpha": walk_alpha(rng), "ray": rng.randint(-5, 5),
                              "N": EXACT_LEAF_N}, self._path(1, "ray"), exact=True),
            _cli_job("leaf", {"alpha": walk_alpha(rng), "through": surd_point(rng),
                              "level": rng.randint(-5, 5),
                              "backward": rng.random() < 0.5, "N": EXACT_LEAF_N},
                     self._path(2, "through"), exact=True),
            _cli_job("heavy", {"alpha": walk_alpha(rng), "N": EXACT_HEAVY_N}, exact=True),
        ]

    def _tower_queries(self, rng):
        jobs = []
        for _ in range(ALPHAS_PER_ROUND):
            alpha = self._fresh_tower_alpha()
            jobs.append(_cli_job("tower", {"alpha": alpha, "depth": TOWER_DEPTH}))
            for _ in range(QUERY_BATCHES):
                ns = [max(1, int(10 ** rng.uniform(0, math.log10(QUERY_MAX))))
                      for _ in range(QUERIES_PER_BATCH)]
                jobs.append(Job("queries", [], {"alpha": alpha, "ns": ns}))
        return jobs

    def cold_probe(self) -> tuple:
        """A fresh alpha and an n >= 2 for the cold-cache fast_birkhoff call."""
        return (self._fresh_tower_alpha(),
                int(10 ** self.rng.uniform(math.log10(2), math.log10(QUERY_MAX))))


# ---------------------------------------------------------------------------
# running


@dataclass
class Outcome:
    rc: int = 0
    stdout: str = ""
    stderr: str = ""
    answers: list = field(default_factory=list)


def execute(job: Job) -> Outcome:
    """Run one job in this process, capturing what rotn prints."""
    if job.kind == "queries":
        cf = parse_cf(job.params["alpha"])
        return Outcome(answers=[fast_birkhoff(cf, n) for n in job.params["ns"]])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(job.argv)
        except SystemExit as exc:  # argparse refusing the argv
            rc = exc.code if isinstance(exc.code, int) else 2
    return Outcome(rc, out.getvalue(), err.getvalue())


def payload_digest(path: str) -> str:
    """sha256 of an output file after its first line, which embeds the path."""
    with open(path, "rb") as fh:
        fh.readline()
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path: str, kind: str) -> tuple:
    """(columns, rows as lists of strings) of a rotn CSV of the given kind."""
    with open(path) as fh:
        first = fh.readline()
        expect(first.startswith("# "), "%s: no header line", path)
        header = json.loads(first[2:])
        columns = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    expect(header["config"]["kind"] == kind, "header kind %r", header["config"]["kind"])
    return columns, rows


# ---------------------------------------------------------------------------
# references


def prefix_extrema(word, k: int) -> tuple:
    """(min, max) of the prefix sums s_1..s_k of a sign word, 1 <= k <= length.

    Descends the word DAG with each node's own prefix extrema, so the
    cost is the depth, not k.
    """
    if not 1 <= k <= word.length:
        raise ValueError("prefix length %d outside [1, %d]" % (k, word.length))
    lo, hi, acc, w = math.inf, -math.inf, 0, word
    while k > 0:
        if w.kind == "atom":
            lo, hi = min(lo, acc + w.sign), max(hi, acc + w.sign)
            break
        if w.kind == "concat":
            left = w.left
            if k <= left.length:
                w = left
                continue
            lo, hi = min(lo, acc + left.min_prefix), max(hi, acc + left.max_prefix)
            acc += left.total
            k -= left.length
            w = w.right
        elif w.kind == "power":
            base = w.base
            copies, k = divmod(k, base.length)
            if copies:
                tail = (copies - 1) * base.total
                lo = min(lo, acc + base.min_prefix + min(0, tail))
                hi = max(hi, acc + base.max_prefix + max(0, tail))
                acc += copies * base.total
            w = base
        else:
            raise ValueError("unexpected word node %r" % (w.kind,))
    return lo, hi


class References:
    """Exact values from the tower, memoized per alpha for one round."""

    def __init__(self):
        self._words: dict = {}
        self._scans: dict = {}

    def clear(self) -> None:
        self._words.clear()
        self._scans.clear()

    def half_word(self, alpha: str):
        """F_minus at depth TOWER_DEPTH: its prefix sums are S_n(1/2)."""
        w = self._words.get(alpha)
        if w is None:
            w = self._words[alpha] = tower(parse_cf(alpha), TOWER_DEPTH)[-1].f_minus
        return w

    def half_sum(self, alpha: str, n: int) -> int:
        return prefix_sum_at(self.half_word(alpha), n)

    def half_extrema(self, alpha: str, n: int) -> tuple:
        return prefix_extrema(self.half_word(alpha), n)

    def half_scan(self, alpha: str):
        """Certified scan of 1/2 to QUERY_SCAN_N steps (exact signs)."""
        s = self._scans.get(alpha)
        if s is None:
            s = self._scans[alpha] = orbit_scan(HALF, parse_cf(alpha).value, QUERY_SCAN_N)
        return s


def exact_window(x0: SurdReal, alpha: SurdReal, start: int, steps: int,
                 direction: int):
    """Exact scan of `steps` steps from t^(direction*start)(x0)."""
    xs = (x0 + alpha * (direction * start)).frac()
    return orbit_scan(xs, alpha, steps, direction=direction, policy="exact")


def _close(a, b) -> bool:
    """Float positions agree; both round the same exact point."""
    return bool(np.allclose(a, b, rtol=0.0, atol=1e-9))


# ---------------------------------------------------------------------------
# checks: each returns the job's work items and raises CheckFailed


def check(job: Job, outcome: Outcome, refs: References, rng: random.Random) -> int:
    expect(outcome.rc in (0, 1), "exit status %d: %s", outcome.rc,
           outcome.stderr.strip()[-200:])
    return _CHECKS[job.kind](job, outcome, refs, rng)


def _report(outcome: Outcome) -> dict:
    return json.loads(outcome.stdout)


def _check_heavy(job, outcome, refs, rng):
    p = job.params
    alpha, N = p["alpha"], p["N"]
    final = refs.half_sum(alpha, N)
    lo, hi = refs.half_extrema(alpha, N)
    expect(fast_birkhoff(parse_cf(alpha), N) == final, "fast_birkhoff disagrees with the tower")
    if job.out is None:
        r = _report(outcome)
        expect((r["final_sum"], r["min_sum"], r["max_sum"]) == (final, lo, hi),
               "heavy sums %r, tower gives %r",
               (r["final_sum"], r["min_sum"], r["max_sum"]), (final, lo, hi))
        expect((r["violations"] == 0) == (hi < 0), "violations %d with max %d",
               r["violations"], hi)
        return N
    cols, rows = read_csv(job.out, "heavy")
    expect(cols == ["n", "position", "S_n"], "columns %r", cols)
    expect(len(rows) == N + 1, "%d rows for N = %d", len(rows), N)
    sums = np.array([int(r[2]) for r in rows], dtype=np.int64)
    expect(sums[0] == 0 and sums[-1] == final, "S_N %d, tower gives %d", sums[-1], final)
    expect((sums[1:].min(), sums[1:].max()) == (lo, hi), "heavy extrema off")
    expect(bool(np.all(np.abs(np.diff(sums)) == 1)), "S_n moves by more than 1")
    w = rng.randrange(0, N - WINDOW)
    ex = exact_window(HALF, parse_cf(alpha).value, w, WINDOW, 1)
    expect(np.array_equal(sums[w:w + WINDOW + 1] - sums[w], ex.sums),
           "sums differ from the exact scan in window %d", w)
    pos = [float(r[1]) for r in rows[w:w + WINDOW + 1]]
    expect(_close(pos, ex.positions), "positions differ from the exact scan in window %d", w)
    return len(rows)


def _density_rows(job, outcome) -> list:
    if job.out is None:
        return [(h["N"], h["count"], h["first_time"], h["max_gap"])
                for h in _report(outcome)["horizons"]]
    cols, rows = read_csv(job.out, "density")
    expect(cols == ["N", "count", "first_time", "max_gap"], "columns %r", cols)
    return [(int(r[0]), int(r[1]), int(r[2]) if r[2] else None, float(r[3]))
            for r in rows]


def _check_density(job, outcome, refs, rng):
    p = job.params
    m, k, N = p["m"], p["k"], p["N"]
    rows = _density_rows(job, outcome)
    expect(rows and rows[-1][0] == N, "horizon ladder does not end at N")
    counts = [r[1] for r in rows]
    expect(counts == sorted(counts), "visit counts shrink with the horizon")
    gaps = [r[3] for r in rows if r[1]]
    expect(all(b <= a for a, b in zip(gaps, gaps[1:])), "gaps grow with the horizon")
    H = min(N, DENSITY_EXACT_N)
    ex = orbit_scan(HALF, parse_cf(p["alpha"]).value, H + k, policy="exact")
    for h, count, first, gap in rows:
        if h > H:
            continue
        times = np.nonzero(ex.sums[: h + 1] == m)[0]
        expect(count == times.size, "count %d at N=%d, exact scan gives %d",
               count, h, times.size)
        expect(first == (int(times[0]) if times.size else None), "first_time at N=%d", h)
        if times.size:
            pts = np.sort(ex.positions[times + k])
            exact_gap = 1.0 if pts.size == 1 else max(
                float(np.max(np.diff(pts))), 1.0 - pts[-1] + pts[0])
            expect(_close(gap, exact_gap), "max_gap %r at N=%d, exact %r", gap, h, exact_gap)
    return len(rows) if job.out else N + k


def _check_example(job, outcome, refs, rng):
    p = job.params
    r = _report(outcome)
    rep = example_m_formulas(p["m"], p["kmax"], strict=False)
    N = p["N"]
    expect(rep.witness.length >= N, "witness shorter than N")
    _, hi = prefix_extrema(rep.witness, N)
    expect(r["max_forward_sum"] == hi == -1, "max forward sum %r, witness word gives %r",
           r["max_forward_sum"], hi)
    expect(r["symmetric_sums"] and r["witness_prefix_ok"] and r["formulas_ok"],
           "example sub-checks failed")
    return N + min(N, 10 ** 5)


def _check_leaf(job, outcome, refs, rng):
    p = job.params
    a, N = parse_cf(p["alpha"]).value, p["N"]
    if job.out is None:  # certified ray, summary only
        s = _report(outcome)
        lo, hi = refs.half_extrema(p["alpha"], N)
        base = p["ray"] + 1
        expect((s["N"], s["min_level"], s["max_level"]) == (N, base + lo, base + hi),
               "ray summary %r, tower gives levels %r", s, (base + lo, base + hi))
        expect(s["levels_visited"] == list(range(base + lo, base + hi + 1)),
               "visited levels are not contiguous")
        return N
    cols, rows = read_csv(job.out, "leaf")
    expect(cols == ["n", "x", "level"], "columns %r", cols)
    ns = [int(r[0]) for r in rows]
    xs = np.array([float(r[1]) for r in rows])
    levels = np.array([int(r[2]) for r in rows], dtype=np.int64)
    expect(bool(np.all(np.abs(np.diff(levels)) == 1)), "leaf levels jump")
    if "ray" in p:
        # row i is entry n = i + 1: at t^i(1/2), level ray + 1 + S_(i+1)(1/2)
        x0, direction, base, shift = HALF, 1, p["ray"] + 1, 1
        expect(ns == list(range(1, N + 1)), "ray visit numbers")
        expect(levels[-1] == base + refs.half_sum(p["alpha"], N), "last ray level")
    else:
        # row i is visit n = direction*i: at t^n(x0), level j0 + S_n(x0)
        x0, base, shift = parse_point(p["through"], a), p["level"], 0
        direction = -1 if p["backward"] else 1
        expect(ns == [direction * i for i in range(N + 1)], "leaf visit numbers")

    def expected(scan, rows_from_start):
        """Levels and positions of rows_from_start rows, from a scan of row 0."""
        return (base + scan.sums[shift:shift + rows_from_start],
                scan.positions[:rows_from_start])

    if p["exact"]:  # exact walker against the certified scan, every visit
        want_levels, want_xs = expected(orbit_scan(x0, a, N, direction=direction), len(rows))
        expect(np.array_equal(levels, want_levels), "levels differ from the certified scan")
        expect(_close(xs, want_xs), "positions differ from the certified scan")
        return len(rows)
    # certified rows against the exact scan on a seeded window
    w = rng.randrange(0, len(rows) - WINDOW)
    want_levels, want_xs = expected(exact_window(x0, a, w, WINDOW, direction), WINDOW)
    expect(np.array_equal(levels[w:w + WINDOW] - levels[w], want_levels - want_levels[0]),
           "levels differ from the exact scan in window %d", w)
    expect(_close(xs[w:w + WINDOW], want_xs),
           "positions differ from the exact scan in window %d", w)
    return len(rows)


def _check_oracle(job, outcome, refs, rng):
    p = job.params
    r = _report(outcome)
    depth, samples = p["depth"], p["samples"]
    expect(r["total"] == 3 * (depth - 1) * samples, "oracle sampled %d starts", r["total"])
    expect(r["matches"] == r["total"], "oracle matched %d of %d", r["matches"], r["total"])
    expect(all(g["matches"] == samples for g in r["regions"]), "a region mismatched")
    steps = 0
    for lvl in tower(parse_cf(p["alpha"]), depth)[1:]:
        fp, fm, f0 = lvl.f_plus.length, lvl.f_minus.length, lvl.f_zero.length
        region_lengths = (fp, fm, fm + f0) if lvl.beta.sign() > 0 else (fp + f0, fp, fm)
        steps += samples * sum(region_lengths)
    return steps


def _check_tower(job, outcome, refs, rng):
    p = job.params
    r = _report(outcome)
    depth = p["depth"]
    expect(len(r["levels"]) == depth, "%d levels", len(r["levels"]))
    expect(len(r["bounds"]) == 4 * (depth - 1), "%d bound rows", len(r["bounds"]))
    expect(all(b["ok"] for b in r["bounds"] + r["chains"]), "a tower bound failed")
    scan = refs.half_scan(p["alpha"])
    for lvl in r["levels"]:
        n = lvl["len_minus"]
        if n > QUERY_SCAN_N:
            break
        s = scan.sums[1:n + 1]
        expect((int(s[-1]), int(s.min()), int(s.max()))
               == (-1, lvl["min_minus"], lvl["max_minus"]),
               "level %d F_minus stats differ from the orbit of 1/2", lvl["index"])
    return 0


def _check_queries(job, outcome, refs, rng):
    p = job.params
    scan = refs.half_scan(p["alpha"])
    for n, s in zip(p["ns"], outcome.answers):
        if n <= QUERY_SCAN_N:
            expect(s == int(scan.sums[n]), "S_%d = %d, scan gives %d", n, s, scan.sums[n])
        else:
            expect(abs(s) <= n and (s - n) % 2 == 0, "S_%d = %d is impossible", n, s)
    expect(len(outcome.answers) == len(p["ns"]), "missing answers")
    return len(p["ns"])


_CHECKS = {
    "heavy": _check_heavy,
    "density": _check_density,
    "example": _check_example,
    "leaf": _check_leaf,
    "oracle": _check_oracle,
    "tower": _check_tower,
    "queries": _check_queries,
}
