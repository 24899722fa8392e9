"""The experiments that read an orbit: density, example, leaf and heavy.

Each is a function of its ``ExperimentConfig`` that returns (report,
table), as ``harness`` describes, and ``EXPERIMENTS`` maps their kinds
to them.  They work on numpy arrays (orbit scans, letters of the sign
words, visit sets), so this module imports numpy and the array
modules, and ``harness.run`` imports it only for these kinds: ``tower``
and ``oracle`` run on the standard library alone.

``heavy``, ``density`` and ``leaf --ray`` read the orbit of 1/2,
``example`` that of (1+alpha)/2, and ``leaf --through`` that of its
point, by alpha forward and by -alpha backward.  A certified run reads
its signs off a word, which ``_word`` picks: the tower's ``half_word``
at 1/2, forward, on an admissible alpha, else ``euclid.sign_word``, on
any alpha and from any start, by either step; it checks a prefix by the
64-bit keys of ``key_signs``, whose signs must agree with the word.  An
exact-only run, the ground truth, walks every step: ``heavy``,
``example`` and ``leaf`` fold the walk into their sums as it goes
(``scan.exact_sums``), and ``density`` scans it.  Either route yields
one summary that the report is built from once: the histogram
(lo, counts) of the sums for ``heavy``, ``example`` and ``leaf``, which
``_orbit`` gives, and the visit set for ``density``.  Only an ``--out``
table holds N points: ``heavy`` scans the orbit for it, and ``leaf``
traces every visit.
"""

from __future__ import annotations

import os

import numpy as np

from .circle import VisitSet, visit_set
from .euclid import sign_word
from .example import example_m_formulas
from .exactreal import HALF, SurdReal, parse_cf
from .foliation import _refuse_corner, trace_leaf_through, trace_ray
from .harness import ExperimentConfig, parse_point
from .renorm import admissible, half_word
from .scan import exact_sums, key_signs, orbit_positions, orbit_scan, sums_histogram
from .words import _add_shifted, letters, level_times, prefix_histogram, prefix_sum_at

# leaf visits the other policy retraces, and all that a leaf without
# --out traces; few enough that both traces stay cheap next to a summary
_LEAF_CHECK_VISITS = 256
# steps of the orbit that a run reading its signs off a word also keys,
# so the word and the keys check each other; about 0.2 ms of key_signs
_PREFIX_STEPS = 1 << 16
# entry levels per slice of the leaf's step check (512 KiB of int64)
_STEP_CHUNK = 1 << 16
# a scan holds a float64 position, an int8 sign and an int64 sum a point,
# and an exact leaf trace only the float64 and the int64, so both are
# charged 17 B a point; numpy refuses an array past 2^63 - 1 bytes
_SCAN_BYTES_PER_POINT = 17
_MAX_ARRAY_BYTES = 2 ** 63 - 1
_HOST_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
# steps of an exact walk that folds its sums (exact-only heavy and leaf
# without --out, and example), which allocates nothing it could refuse.
# The folded walk reads its signs off uint64 keys at 8-10 ns a step on
# every alpha: heavy --N 10^9 took 8.6-9.6 s and 31 MB on [0;(2)] and on
# [0;21,(30,28,26)] (fresh processes, 2-core host)
_MAX_EXACT_STEPS = 10 ** 9
# the report keys of a run that reads its signs off an exact walk or a
# trace of every step, with no word to check
_SCAN_CHECK = {"signs": "scan", "prefix_steps_checked": 0}


def _gap_ladder(N: int) -> list:
    horizons = {N} | {10 ** e for e in range(2, 9) if 10 ** e < N}
    return sorted(horizons)


def _refuse_unallocatable(config: ExperimentConfig, points: int) -> None:
    """Refuse, naming --N (and --k), a scan or trace of this many points
    whose arrays numpy cannot allocate or the host's physical memory
    cannot hold, before any of them is allocated."""
    need = points * _SCAN_BYTES_PER_POINT
    if need > _MAX_ARRAY_BYTES:
        limit = "the limit of 2^63 - 1"
    elif need > _HOST_MEMORY:
        limit = "the host's memory of %d bytes" % (_HOST_MEMORY,)
    else:
        return
    given = "--N %d" % (config.N,)
    if config.kind == "density" and config.k > 0:
        given += " and --k %d" % (config.k,)
    raise ValueError("%s: a scan of %d points needs %d bytes, %d a point, above %s"
                     % (given, points, need, _SCAN_BYTES_PER_POINT, limit))


def _word(cf, x: SurdReal, step: SurdReal, n: int, checked: int, scan=None):
    """A certified run's signs of n steps of the orbit of x by step, as
    (word, signs, escalations, check).

    The signs are the first n letters of a word, exactly: the tower's
    ``half_word`` at x = 1/2, forward, on an admissible alpha, which is
    the faster there, else ``euclid.sign_word``.  signs holds the signs of
    min(n, checked) steps, escalations the number of them that took the
    exact test, and check says whether they agree with the word.  They
    come from ``key_signs``, by the 64-bit key with no position or sum,
    or from scan, a certified scan of those steps that the caller made
    for its table.  check holds the route's report keys.
    """
    steps = min(n, checked)
    signs, escalated = (scan.signs, scan.escalated) if scan else key_signs(x, step, steps)
    if x == HALF and step == cf.value and admissible(cf):
        word, route = half_word(cf, n), "tower"
    else:
        word, route = sign_word(step, x, n), "euclid"
    agrees = bool(np.array_equal(signs[:steps], letters(word, steps)))
    return word, signs, int(escalated.size), {
        "signs": route, "prefix_steps_checked": steps, "prefix_agrees": agrees}


def _orbit(config: ExperimentConfig, cf, x: SurdReal, step: SurdReal, n: int,
           checked: int, scan=None):
    """The sums of n steps of the orbit of x by step, as
    ((lo, counts, S_n), signs, escalations, check), with (lo, counts)
    the histogram of S_1..S_n in ``prefix_histogram``'s format.

    A certified run reads them off ``_word``'s word, at any n below 2^63,
    and the rest is what ``_word`` gives.  An exact-only run, the ground
    truth, walks all n steps and takes no exact fallback: by
    ``exact_sums``, which holds no array of length n and keeps the signs
    of min(n, checked) steps, after refusing more than _MAX_EXACT_STEPS
    steps; or, given scan, an exact scan of all n steps that the caller
    made for its table, by binning its sums a chunk at a time.
    """
    if config.policy == "certified":
        word, signs, escalated, check = _word(cf, x, step, n, checked, scan)
        return (*prefix_histogram(word, n), prefix_sum_at(word, n)), signs, escalated, check
    if scan:
        sums, signs = (*sums_histogram(scan.sums[1:]), int(scan.sums[-1])), scan.signs
    elif n > _MAX_EXACT_STEPS:
        raise ValueError("--N %d: an exact walk of %d steps is above the budget of %d "
                         "steps" % (config.N, n, _MAX_EXACT_STEPS))
    else:
        *sums, signs = exact_sums(x, step, n, min(n, checked))
    return sums, signs, 0, dict(_SCAN_CHECK)


def _density(config: ExperimentConfig):
    """How the level-m visit positions fill the circle as N grows.

    An exact-only run reads its visit set off an exact scan of
    N + max(k, 0) steps.  A certified run, whose check keys min(N, 2^16)
    signs, takes the visit times from ``level_times``, by descent of the
    word, and positions only at the visits, by the scan's own formula and
    radius test, so they equal the scan's bit for bit; ``orbit_positions``
    adds k to the times a chunk at a time, so no shifted copy of them is
    made.  The gaps of
    every horizon come from ``VisitSet.max_gaps``, which as a rule sorts
    only a few buckets' positions of a horizon of 2^12 visits or more.
    escalations counts the exact fallbacks of both: the check's undecided
    keys and the positions' flagged indices.
    The report reads the visit set once: a row per horizon, the last of
    which, N's, gives the top-level count, first_time and max_gap (None,
    and NaN in the table, with no visit).
    """
    m, N, k = config.m, config.N, config.k
    cf = parse_cf(config.alpha)
    alpha = cf.value
    if config.policy == "exact":
        _refuse_unallocatable(config, N + max(k, 0) + 1)
        scan = orbit_scan(HALF, alpha, N + max(k, 0), policy="exact")
        vs = visit_set(HALF, alpha, m, N, k=k, scan=scan)
        check = dict(_SCAN_CHECK)
    else:
        word, signs, prior, check = _word(cf, HALF, alpha, N + max(k, 0),
                                          min(N, _PREFIX_STEPS))
        del signs  # the checked signs, not to be held across level_times
        times = level_times(word, m, N)
        if m == 0:  # S_0 = 0
            times = np.concatenate([np.zeros(1, dtype=np.int64), times])
        positions, escalated, radius = orbit_positions(HALF, alpha, times, k)
        vs = VisitSet(times=times, positions=positions, position_radius=radius,
                      escalations=prior + int(escalated.size))

    rows = []
    ladder = _gap_ladder(N)
    gaps = vs.max_gaps(ladder)
    for h, gap in zip(ladder, gaps):
        cnt = int(np.searchsorted(vs.times, h, side="right"))
        first = int(vs.times[0]) if cnt else None
        rows.append({"N": h, "count": cnt, "first_time": first,
                     "max_gap": gap if cnt else None})
    last = rows[-1]

    # The visit set only grows with the horizon, so the gap cannot rise;
    # and m = 0 always holds at n = 0.
    seen = [r["max_gap"] for r in rows if r["count"]]
    ok = all(b <= a for a, b in zip(seen, seen[1:]))
    if m == 0 and vs.count == 0:
        ok = False

    report = {"m": m, "k": k, "N": N, "count": last["count"],
              "first_time": last["first_time"], "max_gap": last["max_gap"],
              "escalations": vs.escalations, "horizons": rows,
              **check, "ok": ok and check.get("prefix_agrees", True)}
    names = ["N", "count", "first_time"]
    return report, (names + ["max_gap"], [[r[c] for r in rows] for c in names] + [gaps])


def _example(config: ExperimentConfig):
    """The bounded-above orbit family: formulas plus an orbit audit.

    The audit follows x = (1+alpha)/2 for N steps: max_forward_sum is the
    largest of S_1(x)..S_N(x), symmetric_sums says whether the first
    n = min(N, 10^5) forward sums equal the backward ones, that is whether
    the backward signs 1..n are the forward signs 0..n-1 negated, and
    witness_prefix_ok compares the first min(N, 20,000, witness length)
    signs with the witness word.  The forward signs come from ``_orbit``
    with a check of 10^5 steps: a certified run takes max_forward_sum
    from one prefix histogram of ``euclid.sign_word``'s word of x, at any
    N below 2^63, and the forward signs are ``key_signs``' n, by alpha,
    which serve both checks above and must equal the word's letters for
    ok to hold; an exact-only run folds all N steps forward, keeping n
    signs, by ``_orbit``'s step budget.  The backward signs are n + 1 by
    -alpha, exact on both routes: a certified run's from ``key_signs``,
    and an exact-only run's from the exact walk (``exact_sums``), which
    takes no certified fallback.  The word reads neither the witness nor
    the tower, which is what the audit checks.
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
        n_sym = min(N, 10 ** 5)
        (lo, counts, _), signs, _, check = _orbit(config, rep.alpha, rep.x, rep.alpha.value,
                                                  N, n_sym)
        if config.policy == "exact":
            back = exact_sums(rep.x, -rep.alpha.value, n_sym + 1, n_sym + 1)[-1]
        else:
            back = key_signs(rep.x, -rep.alpha.value, n_sym + 1)[0]
        report["max_forward_sum"] = lo + counts.size - 1
        report["symmetric_sums"] = bool(
            np.array_equal(back[1: n_sym + 1], np.negative(signs[:n_sym]))
        )
        n_pref = min(N, 20000, rep.witness.length)
        prefix = letters(rep.witness, n_pref)
        report["witness_prefix_ok"] = bool(np.array_equal(prefix, signs[:n_pref]))
        report["ok"] = (report["formulas_ok"] and rep.ok
                        and report["max_forward_sum"] == -1
                        and report["symmetric_sums"]
                        and report["witness_prefix_ok"]
                        and check.get("prefix_agrees", True))
    else:
        report["ok"] = report["formulas_ok"] and rep.ok

    return report, None


def _leaf(config: ExperimentConfig):
    """Trace one leaf: a singular ray or the leaf through a given point.

    The run passes when consecutive entry levels differ by exactly 1 and
    the other precision, retracing the first visits, agrees with them:
    equal levels, and positions within the certified radius.

    min_level, max_level and levels_visited are read off the histogram
    (lo, counts) of the entry levels, which are Birkhoff sums shifted.
    Ray entry n sits at level ray + 1 + S_n(1/2), and visit n of the
    leaf through (x0, j0) at j0 + S_n(x0), or backward at j0 - S'_n,
    with S' the sums of the orbit of x0 - alpha by -alpha; visit 0
    adds S_0 = 0.  So without --out ``_orbit`` gives the histogram, as
    for ``heavy``: a certified run off a word, at any N below 2^63,
    checked by its keys of min(N, 2^16) signs, and an exact-only run off
    the folded walk, within its step budget.  A corner leaf is refused
    first, by an exact solve.  The trace then covers only the
    min(N, 256) visits the other precision retraces, the turn map
    against the orbit formula; only --out traces all N and bins its own
    levels.
    """
    cf = parse_cf(config.alpha)
    alpha = cf.value
    N, policy = config.N, config.policy
    if config.ray is not None:
        def trace_for(n, policy):
            return trace_ray(config.ray, alpha, n, policy=policy)
        x, step, shift = HALF, alpha, config.ray + 1
    else:
        x0 = parse_point(config.through, alpha)
        direction = -1 if config.backward else 1
        _refuse_corner(x0, alpha, N, direction)

        def trace_for(n, policy):
            return trace_leaf_through(x0, config.level, alpha, n, direction=direction,
                                      policy=policy)
        x, step = (x0, alpha) if direction == 1 else (x0 - alpha, -alpha)
        shift = config.level

    retraced = min(N, _LEAF_CHECK_VISITS)
    if config.out:
        _refuse_unallocatable(config, N + 1)
        trace = trace_for(N, policy)
        lo, counts = sums_histogram(trace.entry_level)
        check = dict(_SCAN_CHECK)
    else:
        (lo, counts, _), _, _, check = _orbit(config, cf, x, step, N, _PREFIX_STEPS)
        if config.ray is None:
            if config.backward:
                lo, counts = -(lo + counts.size - 1), counts[::-1]
            lo, counts = _add_shifted(np, [(0, (lo, counts)), (0, (0, np.ones(1, np.int64)))])
        lo += shift
        trace = trace_for(retraced, policy)
    # the other policy retraces a short prefix; the two must agree on it
    other = trace_for(retraced, "certified" if policy == "exact" else "exact")
    cert, exact = (other, trace) if policy == "exact" else (trace, other)
    k = other.visits
    # the differences a chunk at a time, each overlapping the next by one
    # entry, so no full-length copy of the levels is made
    levels = trace.entry_level
    levels_step_by_one = all(
        bool(np.all(np.abs(np.diff(levels[i:i + _STEP_CHUNK + 1])) == 1))
        for i in range(0, levels.size - 1, _STEP_CHUNK))
    # an exact entry_x is a float shadow, off by at most one rounding; and
    # the summary, whichever route read it, is a run of levels with no gap
    # (the sums step by one) that holds every retraced level
    prefix_agrees = check.pop("prefix_agrees", True) and bool(
        np.array_equal(cert.entry_level[:k], exact.entry_level[:k])
        and np.all(np.abs(cert.entry_x[:k] - exact.entry_x[:k])
                   <= cert.radius_bound + 2.0 ** -52)
        and lo <= levels[:k].min() and levels[:k].max() < lo + counts.size and counts.all()
    )
    report = {"seed": trace.seed, "N": N, "min_level": lo, "max_level": lo + counts.size - 1,
              "levels_visited": (np.flatnonzero(counts) + lo).tolist(), "policy": policy,
              "levels_step_by_one": levels_step_by_one,
              "prefix_visits_checked": k, "prefix_agrees": prefix_agrees,
              **check, "ok": levels_step_by_one and prefix_agrees}
    start, by = trace.start_index, trace.direction
    ns = range(start, start + by * trace.visits, by)
    return report, (["n", "x", "level"], [ns, trace.entry_x, trace.entry_level])


def _heavy(config: ExperimentConfig):
    """Contrast run: count sign violations of S_n(1/2) < 0 for 1 <= n <= N.

    The report reads only the histogram (lo, counts) of S_1..S_N and
    S_N, which either route of ``_orbit`` gives: a certified run's keyed
    signs only check the word, over 2^16 steps, and an exact-only run
    folds its walk, holding no array of length N; only when --out needs
    its table does either scan all N steps.
    """
    N = config.N
    cf = parse_cf(config.alpha)
    if config.out:
        _refuse_unallocatable(config, N + 1)
    scan = orbit_scan(HALF, cf.value, N, policy=config.policy) if config.out else None
    (lo, counts, final_sum), _, escalated, check = _orbit(
        config, cf, HALF, cf.value, N, N if config.out else _PREFIX_STEPS, scan)
    violations = int(counts[max(0, -lo):].sum())
    report = {"alpha": config.alpha, "N": N, "violations": violations, "min_sum": lo,
              "max_sum": lo + counts.size - 1, "final_sum": final_sum,
              "escalations": escalated, **check,
              "ok": violations == 0 and check.get("prefix_agrees", True)}
    if scan is None:
        return report, None  # the keyed check has no positions or sums
    # written only with --out, when the scan covers all N steps; the scan
    # route hands it back unwritten as well, since freeing its arrays here,
    # not in harness.run, cost an exact 50,000-step run about 100 more
    # minor page faults
    return report, (["n", "position", "S_n"], [range(N + 1), scan.positions, scan.sums])


EXPERIMENTS = {
    "density": _density,
    "example": _example,
    "leaf": _leaf,
    "heavy": _heavy,
}
