"""Host-speed calibration: a fixed reference loop sampled while a run measures.

The benchmark runs on shared machines whose speed drifts by up to 2x within
seconds while the process keeps its core (CPU time equals wall time), so
neither longer runs nor CPU time steady a host-time figure. While a run
measures, a timer signal interrupts it every ``SLICE_INTERVAL_S`` to time a
short slice of a fixed pure-Python loop, which measures the machine's speed
at that moment. A measured section's host time, less the slices inside it,
is rescaled to what it would have been at the slice's nominal speed.

The loop lives here, not in the program, so a change to the program cannot
speed it up: only the program side of the ratio moves.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

#: Iterations of one reference slice; about 4 ms on a 2-core VM.
SLICE_STEPS = 2_500
#: Nominal slice time. Calibrated seconds are host seconds on a machine
#: that runs one slice in exactly this long.
SLICE_NOMINAL_S = 0.004
#: Real time between slices: about 7% of a run goes to slices.
SLICE_INTERVAL_S = 0.05


class _Event:
    __slots__ = ("t", "key", "value")

    def __init__(self, t: float, key: int, value: int) -> None:
        self.t = t
        self.key = key
        self.value = value


def reference_loop(steps: int) -> float:
    """Event-loop-shaped work (heap, small objects, dict updates)."""
    rng = random.Random(12345)
    heap: list = []
    waits: dict[int, float] = {}
    done: list[int] = []
    t = 0.0
    for i in range(steps):
        t += rng.random()
        heapq.heappush(heap, (t + rng.random() * 10.0, i,
                              _Event(t, i & 1023, i)))
        if len(heap) > 512:
            when, _, event = heapq.heappop(heap)
            waits[event.key] = waits.get(event.key, 0.0) + (when - event.t)
            done.append(event.value)
            if len(done) > 4096:
                done.clear()
    return sum(waits.values())


class Calibration:
    """Reference slices taken by a timer signal while ``sampling`` is on.

    Time measured with ``now`` excludes the slices, so sections can be
    timed as usual; ``speed`` turns such a section's host seconds into
    calibrated seconds.
    """

    def __init__(self) -> None:
        self.slices: list[float] = []
        #: Host seconds spent in the signal handler so far.
        self.stolen_s = 0.0
        self._busy = False

    def now(self) -> float:
        """Host seconds, less the time spent in reference slices."""
        while True:
            stolen = self.stolen_s
            t = perf_counter()
            # A slice that ran between the two reads changed stolen_s.
            if stolen == self.stolen_s:
                return t - stolen

    def mark(self) -> int:
        """Position to pass to ``speed`` at the end of a section."""
        return len(self.slices)

    def speed(self, since: int) -> float:
        """Calibration factor of a section that began at ``mark() == since``.

        It uses the slices taken during the section and the one before it,
        so a section shorter than the interval still gets one.
        """
        window = self.slices[max(since - 1, 0):]
        return SLICE_NOMINAL_S / statistics.fmean(window)

    @contextmanager
    def sampling(self):
        """Take a slice every ``SLICE_INTERVAL_S`` for the block's duration."""
        reference_loop(SLICE_STEPS)  # warm-up
        self._slice(signal.SIGALRM, None)
        previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, SLICE_INTERVAL_S,
                         SLICE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _slice(self, signum, frame) -> None:
        # The collector is off meanwhile: the loop makes no cycles, and a
        # full collection set off by its allocations would scan the
        # program's heap and time that instead of the machine.
        if self._busy:
            return
        self._busy = True
        entered = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference_loop(SLICE_STEPS)
            self.slices.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
            self._busy = False
            self.stolen_s += perf_counter() - entered
