"""Event taxonomy of the cluster simulator.

All event and payload classes carry ``__slots__``: the simulator
allocates one payload per request attempt, so per-object ``__dict__``s
would dominate allocator traffic at millions of events. The hottest
record of all — the completion payload — is additionally *pooled*
(:class:`CompletionRecord`): released records go onto a free list and
are re-initialised in place, so steady-state simulation allocates no
completion objects at all.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class EventKind(enum.IntEnum):
    """Ordered so same-timestamp events resolve deterministically:
    completions free capacity before new arrivals claim it, and control
    actions run before the traffic they affect. ARRIVAL never enters
    the heap (both main loops stream arrivals off the trace arrays with
    a strict ``<`` bypass, so every same-time heap event wins the tie);
    DECODE_STEP sits past it only because renumbering the existing
    kinds would change heap tie-breaks and break bit-exactness of the
    discriminative path."""

    COMPLETION = 0
    REPLACEMENT_READY = 1
    SCALE_OUT_READY = 2
    RESCHEDULE = 3
    AUTOSCALE_CHECK = 4
    INSTANCE_FAILURE = 5
    #: Multi-stream pool coordination (repro.multistream.simulation).
    COORDINATE = 6
    ARRIVAL = 7
    #: One decode-batch step boundary of the generative data plane
    #: (repro.sim.generative).
    DECODE_STEP = 8
    #: A prefill-pool instance finished a request's prompt pass
    #: (repro.sim.disagg); the KV handoff to the decode pool follows.
    PREFILL_DONE = 9
    #: KV-cache transfer between the prefill and decode pools landed
    #: (repro.sim.disagg).
    KV_TRANSFER = 10


@dataclass(frozen=True, order=True, slots=True)
class Event:
    """One scheduled simulator event.

    Ordering key: (time, kind, seq). ``payload`` is excluded from the
    ordering to keep comparisons cheap and total.

    Internally the :class:`~repro.sim.engine.EventQueue` stores plain
    ``(time_ms, kind, seq, payload)`` tuples (tuple comparison runs in
    C); this dataclass is the façade :meth:`EventQueue.pop` materialises
    for callers that want named fields.
    """

    time_ms: float
    kind: EventKind
    seq: int
    payload: Any = field(compare=False, default=None)


@dataclass(frozen=True, slots=True)
class ArrivalPayload:
    request_id: int
    length: int


@dataclass(frozen=True, slots=True)
class CompletionPayload:
    request_id: int
    instance_id: int
    arrival_ms: float
    length: int
    runtime_index: int
    #: Dispatch-attempt token. A request that is lost (crash, blackout)
    #: and re-dispatched gets a new token; completions carrying a stale
    #: token are ignored, so a request is never served twice.
    attempt_token: int = 0
    #: Pure service time (finish − start) of this attempt — the health
    #: monitor's deviation signal, free of queueing delay.
    service_ms: float = 0.0


class CompletionRecord:
    """Mutable, pooled counterpart of :class:`CompletionPayload`.

    The single-stream simulator schedules exactly one of these per
    dispatch attempt — the hottest allocation in the whole data plane.
    Instead of an ``instance_id`` it carries the instance object itself
    (saving a dict lookup on the completion path; instances are never
    garbage-collected mid-run, and stale-token filtering already covers
    every crash/blackout case the id lookup used to guard).

    Acquire via :func:`acquire_completion` / release via
    :func:`release_completion`, or manipulate ``COMPLETION_POOL``
    directly on the hot path. ``total_allocated`` counts true
    constructions (pool misses) so tests can certify reuse.
    """

    __slots__ = ("request_id", "instance", "arrival_ms", "length",
                 "runtime_index", "attempt_token", "service_ms")

    #: Lifetime count of real allocations (pool misses) — class-level so
    #: the allocation microbench can assert the pool actually reuses.
    total_allocated = 0

    def __init__(self) -> None:
        CompletionRecord.total_allocated += 1
        self.instance = None


#: Process-wide free list. Single-threaded by construction (each
#: simulator worker process owns its own copy).
COMPLETION_POOL: list[CompletionRecord] = []


def acquire_completion(
    request_id: int,
    instance: Any,
    arrival_ms: float,
    length: int,
    runtime_index: int,
    attempt_token: int,
    service_ms: float,
) -> CompletionRecord:
    """Take a record off the free list (or allocate) and fill it."""
    rec = COMPLETION_POOL.pop() if COMPLETION_POOL else CompletionRecord()
    rec.request_id = request_id
    rec.instance = instance
    rec.arrival_ms = arrival_ms
    rec.length = length
    rec.runtime_index = runtime_index
    rec.attempt_token = attempt_token
    rec.service_ms = service_ms
    return rec


def release_completion(rec: CompletionRecord) -> None:
    """Return a record to the free list (drops the instance ref)."""
    rec.instance = None
    COMPLETION_POOL.append(rec)


def completion_pool_stats() -> dict[str, int]:
    """Pool telemetry for benchmarks and the allocation microbench."""
    return {
        "free": len(COMPLETION_POOL),
        "total_allocated": CompletionRecord.total_allocated,
    }


class DecodeTask:
    """Mutable, pooled per-request state of the generative data plane.

    One task tracks a prefill+decode request from placement to its
    final decode step: the generative event loop keeps tasks on
    per-instance waiting queues and active batches, advancing
    ``steps_done`` at every batch step boundary. Pooled exactly like
    :class:`CompletionRecord` — the generative simulator allocates one
    task per dispatch attempt, so the free list keeps steady-state
    allocation at zero.
    """

    __slots__ = ("request_id", "arrival_ms", "prefill_len", "decode_len",
                 "steps_done", "attempt", "service_ms", "awaiting_first")

    #: Lifetime count of real allocations (pool misses).
    total_allocated = 0

    def __init__(self) -> None:
        DecodeTask.total_allocated += 1


#: Process-wide free list (single-threaded by construction, like the
#: completion pool).
DECODE_TASK_POOL: list[DecodeTask] = []


def acquire_decode_task(
    request_id: int,
    arrival_ms: float,
    prefill_len: int,
    decode_len: int,
    attempt: int,
) -> DecodeTask:
    """Take a task off the free list (or allocate) and fill it."""
    task = DECODE_TASK_POOL.pop() if DECODE_TASK_POOL else DecodeTask()
    task.request_id = request_id
    task.arrival_ms = arrival_ms
    task.prefill_len = prefill_len
    task.decode_len = decode_len
    task.steps_done = 0
    task.attempt = attempt
    task.service_ms = 0.0
    task.awaiting_first = True
    return task


def release_decode_task(task: DecodeTask) -> None:
    """Return a task to the free list."""
    DECODE_TASK_POOL.append(task)


def decode_task_pool_stats() -> dict[str, int]:
    """Pool telemetry for benchmarks and pooling tests."""
    return {
        "free": len(DECODE_TASK_POOL),
        "total_allocated": DecodeTask.total_allocated,
    }


@dataclass(frozen=True, slots=True)
class RecoveryPayload:
    """A failed instance's GPU rejoining with a fresh runtime."""

    gpu_id: int
    runtime_index: int


@dataclass(frozen=True, slots=True)
class SlowdownEndPayload:
    """A straggler window elapsed; restore the nominal service time."""

    instance_id: int


@dataclass(frozen=True, slots=True)
class BlackoutEndPayload:
    """A blacked-out instance becomes responsive again."""

    instance_id: int


@dataclass(frozen=True, slots=True)
class RetryPayload:
    """A lost request's backoff delay elapsed; re-dispatch it."""

    request_id: int
    arrival_ms: float
    length: int
    #: How many backoff retries this request has already consumed.
    attempt: int


@dataclass(frozen=True, slots=True)
class ProbePayload:
    """A quarantined instance's breaker window elapsed; probe it."""

    instance_id: int
