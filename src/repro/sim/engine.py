"""The event queue: a deterministic time-ordered heap.

Internally the heap stores plain ``(time_ms, kind, seq, payload)``
tuples, not :class:`Event` objects: tuple comparison runs entirely in
C, and no object is allocated per push beyond the tuple itself.
:meth:`EventQueue.pop` materialises the :class:`Event` façade for
callers that want named fields; :meth:`pop_batch` drains a maximal run
of same-``(time, kind)`` events in one call and hands back only their
payloads. The simulators' hot loops read ``_heap`` directly and inline
that same drain.

Payloads are opaque to the queue. Completions carry pooled
:class:`~repro.sim.events.CompletionRecord` objects; control and fault
events carry their own small payload objects.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any

from repro.errors import SimulationError
from repro.sim.events import Event, EventKind


class EventQueue:
    """Min-heap of events with monotonic pop times.

    Determinism: ties on time break by :class:`EventKind` (completions
    before arrivals), then by insertion order. Pushing an event earlier
    than the last popped time is a logic error and raises.
    """

    __slots__ = ("_heap", "_seq", "_now", "_popped")

    def __init__(self) -> None:
        self._heap: list[tuple[float, EventKind, int, Any]] = []
        self._seq = 0
        self._now = 0.0
        self._popped = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def now_ms(self) -> float:
        """Time of the most recently popped event."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._popped

    def push(self, time_ms: float, kind: EventKind, payload: Any = None) -> None:
        time_ms = float(time_ms)
        if time_ms < self._now - 1e-9:
            raise SimulationError(
                f"cannot schedule {kind.name} at {time_ms} before the "
                f"current time {self._now}"
            )
        heappush(self._heap, (time_ms, kind, self._seq, payload))
        self._seq += 1

    def pop(self) -> Event:
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        time_ms, kind, seq, payload = heappop(self._heap)
        self._now = time_ms
        self._popped += 1
        return Event(time_ms, kind, seq, payload)

    def pop_batch(self, out: list) -> tuple[float, EventKind, int]:
        """Drain the maximal run of same-``(time, kind)`` head events.

        Clears ``out`` and appends the popped payloads in seq order;
        returns ``(time_ms, kind, count)``. Grouping by *(time, kind)*
        — not just time — keeps batch processing order-equivalent to
        one-by-one popping: a handler can only ever schedule same-time
        events of a *larger* kind (completions never spawn same-time
        completions; arrivals sort after everything), so no event that
        should interleave with the batch can be pushed while the batch
        is being processed.
        """
        heap = self._heap
        if not heap:
            raise SimulationError("pop from an empty event queue")
        out.clear()
        time_ms, kind, _seq, payload = heappop(heap)
        out.append(payload)
        n = 1
        while heap:
            head = heap[0]
            if head[0] != time_ms or head[1] is not kind:
                break
            out.append(heappop(heap)[3])
            n += 1
        self._now = time_ms
        self._popped += n
        return time_ms, kind, n

    def peek_time(self) -> float | None:
        return self._heap[0][0] if self._heap else None
