"""Layer probes for the traced run: unit costs of each rotn module.

Each probe calls one module's public functions inside spans named after
the module, on seeded inputs of fixed size.  Where the benchmark chains
modules the way a subcommand does (scan, then visit sets; scan, then the
CSV writer; tower, then word queries), the inner call gets its own span,
so the outer module's self time is its own work.
"""

from __future__ import annotations

import os
import random
import statistics
import time
import tracemalloc
from fractions import Fraction

from rotn.circle import max_gap, visit_set
from rotn.exactreal import SurdReal, escalations, parse_cf
from rotn.foliation import trace_ray
from rotn.harness import ExperimentConfig, write_csv
from rotn.renorm import (fast_birkhoff, oracle_first_return, tower, verify_bounds,
                         verify_chains)
from rotn.scan import backend_name, kernel_for, orbit_scan
from rotn.words import intern_size, prefix_sum_at

from jobs import HALF, TOWER_DEPTH, tower_alpha, walk_alpha

KERNEL_N = 2_000_000
SCAN_N = 2_000_000
EXACT_SCAN_N = 20_000
EXACT_TRACE_N = 1_000
CSV_ROWS = 50_000
OPS = 2_000
QUERIES = 2_000
REPEATS = 3


def _timed(fn, repeats=REPEATS):
    """Median wall time of fn() over repeats, and its last result."""
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def loadable_kernels() -> dict:
    """Every scan kernel rotn.scan.kernel_for can load, by name."""
    kernels = {}
    for name in ("python", "cython"):
        try:
            kernels[name] = kernel_for(name)
        except ImportError:
            continue
    return kernels


def kernel_probe(alpha: SurdReal) -> dict:
    """Time every kernel kernel_for can load, on the same inputs.

    Radii follow the scan's rigorous model rad(i) = base + i*slope from
    the certified seeds of x0 = 1/2 and alpha.  Ambiguous indices are
    counted with len: summing them would add up index values.
    """
    c0, ca = HALF.certified(), alpha.certified()
    base = c0.radius + 2.0 ** -51
    slope = ca.radius + abs(ca.value) * 2.0 ** -51
    results = {}
    for name, kern in loadable_kernels().items():
        secs, out = _timed(lambda: kern(c0.value, ca.value, KERNEL_N, base, slope))
        results[name] = {"ns_per_step": secs / KERNEL_N * 1e9, "ambiguous": len(out[2]),
                         "out": out}
    outs = [r.pop("out") for r in results.values()]
    identical = all(all((a == b).all() for a, b in zip(outs[0], o)) for o in outs[1:])
    return {"kernels": results, "identical": identical}


def run_probes(tracer, seed: int, tmp_dir: str) -> tuple:
    """All layer probes; returns (per-layer metrics, information for the results)."""
    rng = random.Random("rotnbench:layers:%d" % seed)
    cf = parse_cf(walk_alpha(rng))
    a = cf.value
    m, info = {}, {}

    tracer.new_op()
    with tracer.span("scan.kernel"):
        probe = kernel_probe(a)
    info["kernels"] = probe["kernels"]
    info["kernels_identical"] = probe["identical"]
    m["scan.kernel_ns_per_step"] = probe["kernels"][backend_name()]["ns_per_step"]

    tracer.new_op()
    before = escalations.count
    with tracer.span("scan.orbit_scan"):
        secs, scan = _timed(lambda: orbit_scan(HALF, a, SCAN_N))
    m["scan.orbit_scan_ns_per_step"] = secs / SCAN_N * 1e9
    m["exactreal.escalations"] = escalations.count - before
    tracemalloc.start()
    orbit_scan(HALF, a, SCAN_N)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    m["scan.bytes_per_step"] = peak / SCAN_N

    tracer.new_op()
    with tracer.span("circle"):  # density: scan, then the visit set and its gaps
        with tracer.span("scan.orbit_scan"):
            scan = orbit_scan(HALF, a, SCAN_N)
        t0 = time.perf_counter()
        vs = visit_set(HALF, a, -1, SCAN_N, scan=scan)
        t1 = time.perf_counter()
        max_gap(vs.positions)
        t2 = time.perf_counter()
    m["circle.visit_set_ms"] = (t1 - t0) * 1e3
    m["circle.max_gap_ms"] = (t2 - t1) * 1e3

    tracer.new_op()
    with tracer.span("harness"):  # heavy --out: scan, then the CSV writer
        with tracer.span("scan.orbit_scan"):
            scan = orbit_scan(HALF, a, CSV_ROWS - 1)
        path = os.path.join(tmp_dir, "layers-heavy.csv")
        cfg = ExperimentConfig(kind="heavy", alpha=str(cf), N=CSV_ROWS - 1, out=path)
        rows = ((n, scan.positions[n], int(scan.sums[n])) for n in range(CSV_ROWS))
        t0 = time.perf_counter()
        write_csv(path, cfg, ["n", "position", "S_n"], rows)
        m["harness.write_csv_us_per_row"] = (time.perf_counter() - t0) / CSV_ROWS * 1e6
        os.remove(path)

    tracer.new_op()
    with tracer.span("exactreal"):
        pts = [(HALF + a * rng.randrange(10 ** 6)).frac() for _ in range(OPS)]
        pairs = list(zip(pts, pts[1:] + pts[:1]))
        sums = [x + a for x in pts]
        for name, fn in (("add", lambda: [x + a for x in pts]),
                         ("mul", lambda: [x * y for x, y in pairs]),
                         ("cmp", lambda: [x < y for x, y in pairs]),
                         ("frac", lambda: [s.frac() for s in sums])):
            m["exactreal.%s_ns" % name] = _timed(fn)[0] / OPS * 1e9

    tracer.new_op()
    with tracer.span("scan.exact"):
        secs, _ = _timed(lambda: orbit_scan(HALF, a, EXACT_SCAN_N, policy="exact"), 1)
    m["scan.exact_us_per_step"] = secs / EXACT_SCAN_N * 1e6

    tracer.new_op()
    with tracer.span("renorm.oracle"):
        steps, t0 = 0, time.perf_counter()
        for lvl in tower(cf, 4)[1:]:
            for _ in range(3):
                y = SurdReal.from_fraction(Fraction(rng.random()))
                steps += oracle_first_return(lvl, lvl.interval.from_local(y)).time
        m["renorm.oracle_us_per_step"] = (time.perf_counter() - t0) / steps * 1e6

    tracer.new_op()
    with tracer.span("foliation"):
        secs, _ = _timed(lambda: trace_ray(0, a, EXACT_TRACE_N, policy="exact"), 1)
        m["foliation.trace_exact_us_per_step"] = secs / EXACT_TRACE_N * 1e6
        secs, _ = _timed(lambda: trace_ray(0, a, SCAN_N))
        m["foliation.trace_certified_ns_per_step"] = secs / SCAN_N * 1e9

    tracer.new_op()
    fresh = parse_cf(tower_alpha(rng))
    with tracer.span("renorm.tower"):
        t0 = time.perf_counter()
        levels = tower(fresh, TOWER_DEPTH)
        t1 = time.perf_counter()
        for parent, child in zip(levels, levels[1:]):
            verify_bounds(parent, child, strict=False)
        verify_chains(levels, strict=False)
        t2 = time.perf_counter()
        m["renorm.tower_us_per_level"] = (t1 - t0) / TOWER_DEPTH * 1e6
        m["renorm.verify_us_per_level"] = (t2 - t1) / TOWER_DEPTH * 1e6
        ns = [max(1, int(10 ** rng.uniform(0, 15))) for _ in range(QUERIES)]
        secs, _ = _timed(lambda: [fast_birkhoff(fresh, n) for n in ns])
        m["renorm.fast_birkhoff_us"] = secs / QUERIES * 1e6
        with tracer.span("words"):
            word = levels[-1].f_minus
            secs, _ = _timed(lambda: [prefix_sum_at(word, n) for n in ns])
            m["words.prefix_sum_us"] = secs / QUERIES * 1e6
    m["words.intern_size"] = intern_size()
    return m, info

