"""Per-layer timing for the traced run, installed from outside the program.

The wrappers go around public entry points only, and only while a traced
simulation runs; the original methods are restored afterwards. Spans are
aggregated as they close (calls, busy time, self time, longest call)
instead of being stored, because Algorithm 1 dispatch runs millions of
times on the chaos workload. A span's self time is its duration minus the
time of the spans nested inside it.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from repro.core.request_scheduler import ArloRequestScheduler
from repro.core.runtime_scheduler import RuntimeScheduler

#: (owner class, public method, span name).
ENTRY_POINTS = (
    (RuntimeScheduler, "step", "core.runtime_scheduler.step"),
    (RuntimeScheduler, "decide", "core.runtime_scheduler.decide"),
    (RuntimeScheduler, "decide_pool_split",
     "core.runtime_scheduler.pool_split"),
    (ArloRequestScheduler, "dispatch_fast", "core.request_scheduler.dispatch"),
    (ArloRequestScheduler, "dispatch", "core.request_scheduler.dispatch"),
)


class LayerTracer:
    """Aggregated spans keyed by name."""

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.max_s: dict[str, float] = defaultdict(float)
        #: Child time accumulated by each open span, innermost last.
        self._open: list[float] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        self._open.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            children = self._open.pop()
            self.calls[name] += 1
            self.busy_s[name] += duration
            self.self_s[name] += duration - children
            if duration > self.max_s[name]:
                self.max_s[name] = duration
            if self._open:
                self._open[-1] += duration

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        originals = [(cls, attr, cls.__dict__[attr])
                     for cls, attr, _ in ENTRY_POINTS]
        try:
            for cls, attr, name in ENTRY_POINTS:
                setattr(cls, attr, self._wrap(name, cls.__dict__[attr]))
            yield self
        finally:
            for cls, attr, original in originals:
                setattr(cls, attr, original)

    def _wrap(self, name: str, method):
        span = self.span

        @functools.wraps(method)
        def traced(*args, **kwargs):
            return span(name, method, *args, **kwargs)

        return traced
