"""In-memory spans around the benchmark's own calls into rotn modules.

A span is (id, parent, op, name, start, end).  ``name`` is "<module>" or
"<module>.<what>"; self times are summed per module, the part of the
name before the first dot.  ``op`` groups the spans of one benchmark
operation (one job, or one layer probe).  Spans are kept in memory and
written out with the results when the run ends.

A disabled tracer records nothing, so untraced runs carry no spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: int
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = 0

    def new_op(self) -> None:
        """Start a new operation; later top-level spans belong to it."""
        self._op += 1

    def span(self, name: str):
        """Context manager recording one span; yields the Span (or None)."""
        if not self.enabled:
            return nullcontext()
        return self._record(name)

    @contextmanager
    def _record(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), parent, self._op, name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per module: sum of span durations minus what their children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for s in spans:
        own = s.duration - _covered(children.get(s.id, []), s.start, s.end)
        out[s.module] = out.get(s.module, 0.0) + own
    return out
