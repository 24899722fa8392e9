"""The experiments that read an orbit: density, example, leaf and heavy.

Each is a function of its ``ExperimentConfig`` that returns (report,
table), as ``harness`` describes, and ``EXPERIMENTS`` maps their kinds
to them.  They work on numpy arrays (orbit scans, letters of the tower
words, visit sets), so this module imports numpy and the array
modules, and ``harness.run`` imports it only for these kinds: ``tower``
and ``oracle`` run on the standard library alone.

One function, ``_orbit``, picks where the signs of an orbit come from:
``heavy``, ``density`` and ``leaf --ray`` read the orbit of 1/2,
``example`` that of (1+alpha)/2.  A certified run on an admissible
alpha reads them off the tower and scans a prefix that must agree with
it; any other run scans every step (a leaf traces every visit).  Either
route yields one summary that the report is built from once: the
histogram (lo, counts) of the sums for ``heavy``, ``example`` and
``leaf``, and the visit set for ``density``.
"""

from __future__ import annotations

import os

import numpy as np

from .circle import VisitSet, visit_set
from .example import example_m_formulas
from .exactreal import HALF, SurdReal, parse_cf
from .foliation import trace_leaf_through, trace_ray
from .harness import ExperimentConfig, parse_point
from .renorm import admissible, half_word, orbit_word
from .scan import orbit_positions, orbit_scan, sums_histogram
from .words import letters, level_times, prefix_histogram, prefix_sum_at

# leaf visits retraced under the other policy; small enough that the
# check stays cheap next to a long certified trace
_LEAF_CHECK_VISITS = 256
# steps of the orbit of 1/2 that a run reading its signs off the tower
# also scans, so the two routes check each other; about 1 ms of scan
_PREFIX_STEPS = 1 << 16
# entry levels per slice of the leaf's step check (512 KiB of int64)
_STEP_CHUNK = 1 << 16
# a scan holds a float64 position, an int8 sign and an int64 sum a point,
# and an exact leaf trace only the float64 and the int64, so both are
# charged 17 B a point; numpy refuses an array past 2^63 - 1 bytes
_SCAN_BYTES_PER_POINT = 17
_MAX_ARRAY_BYTES = 2 ** 63 - 1
_HOST_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _gap_ladder(N: int) -> list:
    horizons = {N} | {10 ** e for e in range(2, 9) if 10 ** e < N}
    return sorted(horizons)


def _on_tower(config: ExperimentConfig, cf) -> bool:
    """Whether the run reads its signs off the tower: certified, on an
    admissible alpha.  Exact-only runs, the ground truth, always scan."""
    return config.policy == "certified" and admissible(cf)


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


def _orbit(config: ExperimentConfig, cf, x: SurdReal, n: int, checked: int):
    """The signs of n steps of the orbit of x, as (word, scan, check).

    On the tower (``_on_tower``) the word's first n letters are the signs,
    exactly: ``half_word`` at x = 1/2, else ``orbit_word``, the descent of
    x (the same word at 1/2, at far more cost); scan covers min(n, checked)
    steps, and check says whether they agree with the word.  Any other run
    scans all n steps, with word None.  check holds the route's report keys.
    """
    on_tower = _on_tower(config, cf)
    steps = min(n, checked) if on_tower else n
    _refuse_unallocatable(config, steps + 1)
    if not on_tower:
        scan = orbit_scan(x, cf.value, n, policy=config.policy)
        return None, scan, {"signs": "scan", "prefix_steps_checked": 0}
    word = half_word(cf, n) if x == HALF else orbit_word(cf, x, n)
    scan = orbit_scan(x, cf.value, steps)
    agrees = bool(np.array_equal(scan.signs[:steps], letters(word, steps)))
    return word, scan, {"signs": "tower", "prefix_steps_checked": steps,
                        "prefix_agrees": agrees}


def _sums(word, scan, n: int) -> tuple:
    """(lo, counts, S_n) of the orbit ``_orbit`` gave for n steps, with
    (lo, counts) the histogram of S_1..S_n in ``prefix_histogram``'s format:
    off the word at any n below 2^63, or off the scan a chunk at a time."""
    if word is None:
        return (*sums_histogram(scan.sums[1:]), int(scan.sums[-1]))
    return (*prefix_histogram(word, n), prefix_sum_at(word, n))


def _density(config: ExperimentConfig):
    """How the level-m visit positions fill the circle as N grows.

    The scan route reads its visit set off ``_orbit``'s scan of N + max(k, 0)
    steps.  On the tower, whose check scans min(N, 2^16) steps, the visit
    times come from ``level_times``, by descent of the word, and positions
    only at the visits, by the scan's own formula and radius test, so they
    equal the scan's bit for bit; escalations counts the exact fallbacks
    of both, so an index met by the check and at a visit counts twice.
    The report reads the visit set once: a row per horizon, the last of
    which, N's, gives the top-level count, first_time and max_gap (None,
    and NaN in the table, with no visit).
    """
    m, N, k = config.m, config.N, config.k
    cf = parse_cf(config.alpha)
    alpha = cf.value
    word, scan, check = _orbit(config, cf, HALF, N + max(k, 0), min(N, _PREFIX_STEPS))
    if word is None:
        vs = visit_set(HALF, alpha, m, N, k=k, scan=scan)
    else:
        prior = int(scan.escalated.size)
        del scan  # 17 B a checked step, not to be held across level_times
        times = level_times(word, m, N)
        if m == 0:  # S_0 = 0
            times = np.concatenate([np.zeros(1, dtype=np.int64), times])
        positions, escalated, radius = orbit_positions(HALF, alpha, times + k if k else times)
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
    largest of S_1(x)..S_N(x), symmetric_sums compares the first
    min(N, 10^5) forward sums with the backward ones, and
    witness_prefix_ok compares the first min(N, 20,000, witness length)
    signs with the witness word.  The forward signs come from ``_orbit``
    with a check of 10^5 steps: on the tower, max_forward_sum is one
    prefix histogram of orbit_word, the descent of x, at any N below
    2^63, and the forward scan covers only min(N, 10^5) steps, serves
    both checks above, and must equal the descent's letters for ok to
    hold; any other run scans all N steps.  The descent never reads the
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
        n_sym = min(N, 10 ** 5)
        word, fwd, check = _orbit(config, rep.alpha, rep.x, N, n_sym)
        lo, counts, _ = _sums(word, fwd, N)
        back = orbit_scan(rep.x, rep.alpha.value, n_sym, direction=-1, policy=config.policy)
        report["max_forward_sum"] = lo + counts.size - 1
        report["symmetric_sums"] = bool(
            np.array_equal(back.sums[1: n_sym + 1], fwd.sums[1: n_sym + 1])
        )
        n_pref = min(N, 20000, rep.witness.length)
        prefix = letters(rep.witness, n_pref)
        report["witness_prefix_ok"] = bool(np.array_equal(prefix, fwd.signs[:n_pref]))
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
    (lo, counts) of the entry levels: a full trace bins its own.  Ray
    entry n sits at level ray + 1 + S_n(1/2), so when ``_orbit`` reads
    the signs of 1/2 off the tower, as for ``heavy``, and no --out needs
    every entry_x, it is ``_sums``' histogram shifted by ray + 1, at any
    N below 2^63, checked by ``_orbit``'s scan of min(N, 2^16) steps.
    The trace then covers only the min(N, 256) entries the other
    precision retraces: the certified ray is that scan's orbit shifted,
    so past them its levels step by one by construction.
    """
    cf = parse_cf(config.alpha)
    alpha = cf.value
    N, policy = config.N, config.policy
    if config.ray is not None:
        def trace_for(n, policy):
            return trace_ray(config.ray, alpha, n, policy=policy)
    else:
        x0 = parse_point(config.through, alpha)

        def trace_for(n, policy):
            return trace_leaf_through(x0, config.level, alpha, n,
                                      direction=-1 if config.backward else 1,
                                      policy=policy)

    retraced = min(N, _LEAF_CHECK_VISITS)
    if config.ray is not None and not config.out and _on_tower(config, cf):
        word, scan, check = _orbit(config, cf, HALF, N, _PREFIX_STEPS)
        lo, counts, _ = _sums(word, scan, N)
        lo += config.ray + 1  # entry n sits at ray + 1 + S_n(1/2)
        trace = trace_for(retraced, policy)
    else:
        _refuse_unallocatable(config, N + 1)
        trace = trace_for(N, policy)
        lo, counts = sums_histogram(trace.entry_level)
        check = {"signs": "scan", "prefix_steps_checked": 0}
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
    # an exact entry_x is a float shadow, off by at most one rounding
    prefix_agrees = check.pop("prefix_agrees", True) and bool(
        np.array_equal(cert.entry_level[:k], exact.entry_level[:k])
        and np.all(np.abs(cert.entry_x[:k] - exact.entry_x[:k])
                   <= cert.radius_bound + 2.0 ** -52)
    )
    report = {"seed": trace.seed, "N": N, "min_level": lo, "max_level": lo + counts.size - 1,
              "levels_visited": (np.flatnonzero(counts) + lo).tolist(), "policy": policy,
              "levels_step_by_one": levels_step_by_one,
              "prefix_visits_checked": k, "prefix_agrees": prefix_agrees,
              **check, "ok": levels_step_by_one and prefix_agrees}
    start, step = trace.start_index, trace.direction
    ns = range(start, start + step * trace.visits, step)
    return report, (["n", "x", "level"], [ns, trace.entry_x, trace.entry_level])


def _heavy(config: ExperimentConfig):
    """Contrast run: count sign violations of S_n(1/2) < 0 for 1 <= n <= N.

    The report reads only the histogram (lo, counts) of S_1..S_N and
    S_N, which ``_sums`` gives from either route of ``_orbit``: on the
    tower the scan only checks the word, over 2^16 steps, or over all N
    when --out needs its table.
    """
    N = config.N
    cf = parse_cf(config.alpha)
    word, scan, check = _orbit(config, cf, HALF, N, N if config.out else _PREFIX_STEPS)
    lo, counts, final_sum = _sums(word, scan, N)
    violations = int(counts[max(0, -lo):].sum())
    report = {"alpha": config.alpha, "N": N, "violations": violations, "min_sum": lo,
              "max_sum": lo + counts.size - 1, "final_sum": final_sum,
              "escalations": int(scan.escalated.size), **check,
              "ok": violations == 0 and check.get("prefix_agrees", True)}
    # written only with --out, when the scan covers all N steps
    return report, (["n", "position", "S_n"], [range(N + 1), scan.positions, scan.sums])


EXPERIMENTS = {
    "density": _density,
    "example": _example,
    "leaf": _leaf,
    "heavy": _heavy,
}
