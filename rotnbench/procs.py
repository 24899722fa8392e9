"""Child interpreters with deadlines, reaped by os.wait4 for their own rusage.

``resource.RUSAGE_CHILDREN`` keeps the maximum RSS over every child
reaped so far, so it cannot give one child's peak; ``os.wait4`` returns
the rusage of exactly the child it reaps.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from typing import Optional


class Child:
    """One `python -c code args...` run with rotn importable from src_dir."""

    def __init__(self, code: str, args: list[str], src_dir: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-c", code, *args],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        )
        self._buf = b""
        self.peak_rss_mb: Optional[float] = None

    def read_line(self, deadline: float) -> Optional[str]:
        """Next stdout line, or None at EOF or when perf_counter passes deadline."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 4096)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def finish(self, kill: bool) -> None:
        """Kill if asked, then reap with wait4 and close the pipe."""
        if kill:
            self.proc.kill()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        self.proc.stdout.close()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0


SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import rotn.cli
t1 = time.perf_counter()
from rotn.exactreal import parse_cf
parse_cf(sys.argv[1]).value
t2 = time.perf_counter()
print("ready %r %r" % (t1 - t0, t2 - t1), flush=True)
"""

# Same kind of work as SETUP_CODE (spawn, then imports that read, unmarshal
# and run modules and load extensions) but with no rotn, numpy or sympy:
# its time measures how fast the shared machine starts interpreters now.
REFERENCE_CODE = """\
import argparse, decimal, email.mime.text, fractions, json, statistics, unittest
import xml.dom.minidom
print("ready", flush=True)
"""

# the alarm ends the child by itself even if the parent dies before killing it
COLD_PROBE_CODE = """\
import signal, sys
signal.alarm(int(sys.argv[3]))
from rotn.exactreal import parse_cf
from rotn.renorm import fast_birkhoff
cf = parse_cf(sys.argv[1])
cf.value
print("ready", flush=True)
print(fast_birkhoff(cf, int(sys.argv[2])), flush=True)
"""


def cold_setup(alpha: str, src_dir: str, budget: float) -> dict:
    """Fresh interpreter to ready: `import rotn.cli`, then parse_cf(alpha).value.

    setup_s is measured from the spawn to the ready line, so it includes
    interpreter start-up; the child reports its import and parse times.
    """
    child = Child(SETUP_CODE, [alpha], src_dir)
    line = child.read_line(child.started + budget)
    ready = time.perf_counter()
    child.finish(kill=line is None)
    if line is None or not line.startswith("ready "):
        raise RuntimeError("set-up child gave no ready line within %gs" % budget)
    _, import_s, parse_s = line.split()
    return {"setup_s": ready - child.started, "import_s": float(import_s),
            "parse_s": float(parse_s), "peak_rss_mb": child.peak_rss_mb}


def reference_start(budget: float) -> float:
    """Seconds from spawn to ready of a fresh interpreter running REFERENCE_CODE."""
    child = Child(REFERENCE_CODE, [], "")
    line = child.read_line(child.started + budget)
    ready = time.perf_counter()
    child.finish(kill=line is None)
    if line != "ready":
        raise RuntimeError("reference child gave no ready line within %gs" % budget)
    return ready - child.started


def cold_fast_birkhoff(alpha: str, n: int, src_dir: str,
                       ready_budget: float, call_budget: float) -> dict:
    """fast_birkhoff(parse_cf(alpha), n) on a cold tower cache, in a child.

    The call gets call_budget seconds after the child is ready; a call
    that does not answer in time is killed and reported as timed out.
    """
    backstop = int(ready_budget + call_budget) + 1
    child = Child(COLD_PROBE_CODE, [alpha, str(n), str(backstop)], src_dir)
    ready = child.read_line(child.started + ready_budget)
    answer = None
    if ready == "ready":
        t0 = time.perf_counter()
        answer = child.read_line(t0 + call_budget)
        call_s = time.perf_counter() - t0
    child.finish(kill=answer is None)
    if ready != "ready":
        return {"status": "no ready line", "answer": None}
    if answer is None:
        status = ("timed out after %gs" % call_budget if call_s >= call_budget
                  else "exited without an answer")
        return {"status": status, "answer": None}
    return {"status": "answered", "answer": int(answer), "call_s": call_s,
            "peak_rss_mb": child.peak_rss_mb}
