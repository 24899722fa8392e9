"""The experiments that read an orbit: density, example, leaf and heavy.

Each is a function of its ``ExperimentConfig`` that returns (report,
table), as ``harness`` describes, and ``EXPERIMENTS`` maps their kinds
to them.  They work on numpy arrays (orbit scans, letters of the tower
words, visit sets), so this module imports numpy and the array
modules, and ``harness.run`` imports it only for these kinds: ``tower``
and ``oracle`` run on the standard library alone.
"""

from __future__ import annotations

import numpy as np

from .circle import VisitSet, visit_set
from .example import example_m_formulas
from .exactreal import HALF, SurdReal, parse_cf
from .foliation import trace_leaf_through, trace_ray
from .harness import ExperimentConfig, parse_point
from .renorm import admissible, half_word, orbit_word
from .scan import orbit_positions, orbit_scan
from .words import letters, level_times, prefix_histogram, prefix_sum_at

# leaf visits retraced under the other policy; small enough that the
# check stays cheap next to a long certified trace
_LEAF_CHECK_VISITS = 256
# steps of the orbit of 1/2 that a run reading its signs off the tower
# also scans, so the two routes check each other; about 1 ms of scan
_PREFIX_STEPS = 1 << 16


def _gap_ladder(N: int) -> list:
    horizons = {N} | {10 ** e for e in range(2, 9) if 10 ** e < N}
    return sorted(horizons)


def _tower_word(config: ExperimentConfig, cf):
    """half_word(cf, N) when the run reads the orbit of 1/2 off the tower, else None.

    A certified run on an admissible alpha does: the orbit of 1/2 writes
    the letters of half_word, exactly.  Exact-only runs stay the ground
    truth and scan, and so does any alpha without a tower.
    """
    if config.policy == "certified" and admissible(cf):
        return half_word(cf, config.N)
    return None


def _prefix_check(x: SurdReal, alpha: SurdReal, signs: np.ndarray):
    """Scan len(signs) steps of the orbit of x and compare the signs.

    Returns the scan and the report keys that say where the signs came
    from and whether the scan agreed.
    """
    steps = signs.size
    scan = orbit_scan(x, alpha, steps)
    agrees = bool(np.array_equal(scan.signs[:steps], signs))
    return scan, {"signs": "tower", "prefix_steps_checked": steps,
                  "prefix_agrees": agrees}


_SCANNED = {"signs": "scan", "prefix_steps_checked": 0}


def _half_visits(alpha: SurdReal, word, m: int, N: int, k: int):
    """visit_set(HALF, alpha, m, N, k=k), with the signs read off word.

    The visit times come from ``level_times``, by descent of the word,
    and positions are computed only at the visit indices, by the scan's
    own formula and radius test, so they equal the scan's bit for bit.
    Returns the visit set and the prefix check's report keys.
    """
    times = level_times(word, m, N)
    if m == 0:  # S_0 = 0
        times = np.concatenate([np.zeros(1, dtype=np.int64), times])
    positions, escalated, radius = orbit_positions(HALF, alpha, times + k if k else times)
    scan, check = _prefix_check(HALF, alpha, letters(word, min(N, _PREFIX_STEPS)))
    vs = VisitSet(m=m, k=k, horizon=N, times=times, positions=positions,
                  position_radius=radius,
                  escalations=int(scan.escalated.size + escalated.size))
    return vs, check


def _density(config: ExperimentConfig):
    """How the level-m visit positions fill the circle as N grows."""
    m, N, k = config.m, config.N, config.k
    cf = parse_cf(config.alpha)
    word = _tower_word(config, cf)
    if word is None:
        vs = visit_set(HALF, cf.value, m, N, k=k, policy=config.policy)
        check = _SCANNED
    else:
        vs, check = _half_visits(cf.value, word, m, N, k)

    rows = []
    ladder = _gap_ladder(N)
    for h, gap in zip(ladder, vs.max_gaps(ladder)):
        cnt = int(np.searchsorted(vs.times, h, side="right"))
        first = int(vs.times[0]) if cnt else None
        rows.append({"N": h, "count": cnt, "first_time": first, "max_gap": gap})

    # The visit set only grows with the horizon, so the gap cannot rise;
    # and m = 0 always holds at n = 0.
    gaps = [r["max_gap"] for r in rows if r["count"]]
    ok = all(b <= a for a, b in zip(gaps, gaps[1:]))
    if m == 0 and vs.count == 0:
        ok = False

    report = {**vs.summary(), "escalations": vs.escalations, "horizons": rows,
              **check, "ok": ok and check.get("prefix_agrees", True)}
    names = ["N", "count", "first_time", "max_gap"]
    return report, (names, [[r[c] for r in rows] for c in names])


def _example(config: ExperimentConfig):
    """The bounded-above orbit family: formulas plus an orbit audit.

    The audit follows x = (1+alpha)/2 for N steps: max_forward_sum is the
    largest of S_1(x)..S_N(x), symmetric_sums compares the first
    min(N, 10^5) forward sums with the backward ones, and
    witness_prefix_ok compares the first 20,000 signs with the witness
    word.  An exact-only run scans all N steps.  A certified run reads
    max_forward_sum off one prefix histogram of orbit_word, the tower
    descent of x, at any N below 2^63; its forward scan covers only
    min(N, 10^5) steps, serves both checks above, and must equal the
    descent's letters for ok to hold.  The descent never reads the
    witness, which is what the audit checks.
    """
    m, k_max, N = config.m, config.k_max, config.N
    rep = example_m_formulas(m, k_max, strict=False)

    report = {
        "alpha": config.alpha,
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
        n_sym = min(N, 10 ** 5)
        if config.policy == "certified":
            word = orbit_word(rep.alpha, rep.x, N)
            lo, counts = prefix_histogram(word, N)
            max_forward_sum = lo + counts.size - 1
            fwd, check = _prefix_check(rep.x, av, letters(word, n_sym))
            descent_agrees = check["prefix_agrees"]
        else:
            fwd = orbit_scan(rep.x, av, N, policy="exact")
            max_forward_sum = int(fwd.sums[1:].max())
            descent_agrees = True
        back = orbit_scan(rep.x, av, n_sym, direction=-1, policy=config.policy)
        report["max_forward_sum"] = max_forward_sum
        report["symmetric_sums"] = bool(
            np.array_equal(back.sums[1: n_sym + 1], fwd.sums[1: n_sym + 1])
        )
        n_pref = min(N, 20000)
        prefix = letters(rep.witness, min(n_pref, rep.witness.length))
        report["witness_prefix_ok"] = bool(np.array_equal(prefix, fwd.signs[:n_pref]))
        report["ok"] = (report["formulas_ok"] and rep.ok
                        and report["max_forward_sum"] == -1
                        and report["symmetric_sums"]
                        and report["witness_prefix_ok"] and descent_agrees)
    else:
        report["ok"] = report["formulas_ok"] and rep.ok

    return report, None


def _leaf(config: ExperimentConfig):
    """Trace one leaf: a singular ray or the leaf through a given point.

    The run passes when consecutive entry levels differ by exactly 1 and
    the other precision, retracing the first visits, agrees with them:
    equal levels, and positions within the certified radius.

    Ray entry n sits at level ray + 1 + S_n(1/2), so when the signs come
    off the tower and no --out needs every entry_x, the levels are one
    prefix histogram of half_word, at any N below 2^63.  The trace then
    covers only min(N, 2^16) entries: its levels must equal the word's
    running sums, and the step check runs on it (beyond it every letter
    is +-1, so the levels step by one by construction).
    """
    cf = parse_cf(config.alpha)
    alpha = cf.value
    word = None
    if config.ray is not None:
        if not config.out:
            word = _tower_word(config, cf)

        def trace_for(n, policy):
            return trace_ray(config.ray, alpha, n, policy=policy)
    else:
        x0 = parse_point(config.through, alpha)

        def trace_for(n, policy):
            return trace_leaf_through(x0, config.level, alpha, n,
                                      direction=-1 if config.backward else 1,
                                      policy=policy)

    N, policy = config.N, config.policy
    trace = trace_for(N if word is None else min(N, _PREFIX_STEPS), policy)
    # the other policy retraces a short prefix; the two must agree on it
    other = trace_for(min(N, _LEAF_CHECK_VISITS),
                      "certified" if policy == "exact" else "exact")
    cert, exact = (other, trace) if policy == "exact" else (trace, other)
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
    if word is None:
        summary, check = trace.summary(), _SCANNED
    else:
        level0 = config.ray + 1  # entry n sits at level0 + S_n(1/2)
        lo, counts = prefix_histogram(word, N)
        summary = {"seed": trace.seed, "N": N, "min_level": level0 + lo,
                   "max_level": level0 + lo + counts.size - 1,
                   "levels_visited": (np.flatnonzero(counts) + (level0 + lo)).tolist()}
        running = np.cumsum(letters(word, trace.visits), dtype=np.int64) + level0
        prefix_agrees = prefix_agrees and bool(np.array_equal(trace.entry_level, running))
        check = {"signs": "tower", "prefix_steps_checked": trace.visits}
    report = {**summary, "policy": policy,
              "levels_step_by_one": levels_step_by_one,
              "prefix_visits_checked": k, "prefix_agrees": prefix_agrees,
              **check, "ok": levels_step_by_one and prefix_agrees}
    start, step = trace.start_index, trace.direction
    ns = range(start, start + step * trace.visits, step)
    return report, (["n", "x", "level"], [ns, trace.entry_x, trace.entry_level])


def _heavy(config: ExperimentConfig):
    """Contrast run: count sign violations of S_n(1/2) < 0 for 1 <= n <= N.

    When the signs come off the tower, the counts and extrema are one
    prefix histogram of half_word and the final sum one prefix sum, at
    any N below 2^63; the scan then only checks the tower, over 2^16
    steps, or over all N when --out needs its table.
    """
    N = config.N
    cf = parse_cf(config.alpha)
    word = _tower_word(config, cf)
    if word is None:
        scan = orbit_scan(HALF, cf.value, N, policy=config.policy)
        sums = scan.sums[1:]
        stats = {"violations": int(np.count_nonzero(sums >= 0)),
                 "min_sum": int(sums.min()), "max_sum": int(sums.max()),
                 "final_sum": int(sums[-1])}
        check = _SCANNED
    else:
        lo, counts = prefix_histogram(word, N)
        stats = {"violations": int(counts[max(0, -lo):].sum()),
                 "min_sum": lo, "max_sum": lo + counts.size - 1,
                 "final_sum": prefix_sum_at(word, N)}
        steps = N if config.out else min(N, _PREFIX_STEPS)
        scan, check = _prefix_check(HALF, cf.value, letters(word, steps))
    report = {
        "alpha": config.alpha,
        "N": N,
        **stats,
        "escalations": int(scan.escalated.size),
        **check,
        "ok": stats["violations"] == 0 and check.get("prefix_agrees", True),
    }
    # written only with --out, when the scan covers all N steps
    return report, (["n", "position", "S_n"], [range(N + 1), scan.positions, scan.sums])


EXPERIMENTS = {
    "density": _density,
    "example": _example,
    "leaf": _leaf,
    "heavy": _heavy,
}
