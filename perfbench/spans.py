"""In-memory span recorder for the traced benchmark run.

Spans are recorded only by benchmark code: the tracer replaces module
attributes of the package (``teacher.spmm``, ``optim.AdamW.step``, ...) with
wrappers at the place the package's callers look them up, and restores them
on ``close``. Nothing in the package itself is instrumented, so an untraced
run executes the package unmodified.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from types import SimpleNamespace


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run: str  # benchmark phase that caused the span
    n: int = 0  # optional count reported by the wrapped call

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, n: int = 0) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.n = n
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper. ``count``
        maps the call's result to the span's ``n``."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, count(result) if count and result is not None else 0)

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, fn))

    def close(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **asdict(s)}) + "\n")

    # -- queries over the recorded spans ---------------------------------

    def named(self, name: str, runs=None, within: Span | None = None) -> list[Span]:
        out = []
        for s in self.spans:
            if s.name != name or (runs is not None and s.run not in runs):
                continue
            if within is not None and not (within.start <= s.start and s.end <= within.end):
                continue
            out.append(s)
        return out

    def self_time(self, idx: int) -> float:
        """Span duration minus the time its direct children cover."""
        children = sum(s.dur for s in self.spans if s.parent == idx)
        return self.spans[idx].dur - children


def total_ms(spans: list[Span]) -> float:
    return 1000.0 * sum(s.dur for s in spans)


def median_ms(spans: list[Span]) -> float:
    return 1000.0 * statistics.median(s.dur for s in spans)


def span_cost_us(reps: int = 20000) -> float:
    """Cost of one traced call over a plain one, in microseconds (median of
    five batches)."""
    box = SimpleNamespace(noop=lambda: 1)
    plain = box.noop
    tracer = Tracer()
    tracer.wrap(box, "noop", "calibration")
    traced = box.noop
    costs = []
    for _ in range(5):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(reps):
            plain()
        t1 = time.perf_counter()
        for _ in range(reps):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / reps * 1e6)
    tracer.close()
    return statistics.median(costs)
