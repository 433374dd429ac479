"""The simulator's main loop: trace in, latency population out.

Arrivals are streamed straight off the trace arrays (they never pass
through the event heap), so memory stays flat even for multi-million-
request traces and the per-arrival cost is a list index plus a float
compare. Completions, periodic rescheduling, replacement execution,
auto-scaling checks and fault injection interleave on the same
deterministic event queue; same-timestamp events of one kind are
drained in a single batch pop (see :meth:`EventQueue.pop_batch`).

The arrival bypass preserves the exact event order of the classic
heap-per-arrival design: ARRIVAL is the highest-valued event kind, so
an arrival at time *t* always sorted *after* every other event at *t*
— which is precisely the strict ``arrival_time < heap_time`` test the
bypass uses (ties go to the heap).

Resilience: lost work (crashes, blackouts) is re-dispatched through a
:class:`~repro.resilience.retry.RetryPolicy` (exponential backoff with
jitter, bounded by a run-wide budget) instead of thundering back onto
the survivors instantly. With a :class:`ResilienceConfig` set, a
:class:`~repro.resilience.manager.ResilienceManager` watches every
completion's service-time inflation, quarantines degraded instances out
of the multi-level queue behind a circuit breaker, and probes them back
in — the counters land in ``SimulationResult.control_stats``. That
fault and retry plane, the control plane's periodic events and the
result assembly are shared with the generative loop through
:class:`~repro.sim.kernel.SimKernel`; this module keeps only the
discriminative hot paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush

from repro.baselines.dispatchers import ArloDispatcher, _MlqDispatcher
from repro.baselines.schemes import Scheme
from repro.cluster.autoscaler import AutoscalerConfig, HeadroomConfig
from repro.cluster.instance import RuntimeInstance
from repro.errors import (
    CapacityError,
    ConfigurationError,
    SchedulingError,
    SimulationError,
)
from repro.obs.spans import ObservabilityConfig
from repro.resilience.manager import ResilienceConfig
from repro.resilience.retry import RetryPolicy
from repro.sim.events import (
    COMPLETION_POOL,
    CompletionRecord,
    EventKind,
    release_completion,
)
from repro.sim.faults import FaultPlan
from repro.sim.generative import GenerativeConfig, run_generative_simulation
from repro.sim.kernel import SimKernel, SimulationResult
from repro.units import SECOND
from repro.workload.trace import Trace

__all__ = ["SimulationConfig", "SimulationResult", "run_simulation"]


@dataclass(frozen=True)
class SimulationConfig:
    """Simulator knobs."""

    #: Enable auto-scaling (Fig. 8 experiments). Pass an
    #: :class:`AutoscalerConfig` for the §4 target-tracking policy or a
    #: :class:`HeadroomConfig` for the INFaaS-style load-headroom one.
    enable_autoscaler: bool = False
    autoscaler: AutoscalerConfig | HeadroomConfig | None = None
    autoscale_check_ms: float = 1 * SECOND
    #: Safety cap on processed events (0 disables the cap).
    max_events: int = 0
    #: Drop requests arriving before this time from the statistics
    #: (lets the first scheduling period converge).
    warmup_ms: float = 0.0
    #: Faults to inject — crashes, slowdowns, blackouts, solver faults
    #: (None = fault-free run).
    failures: FaultPlan | None = None
    #: Backoff policy for re-dispatching lost/timed-out work. None
    #: restores the legacy behaviour (instant re-dispatch at the fault
    #: timestamp).
    retry: RetryPolicy | None = field(default_factory=RetryPolicy)
    #: Health monitoring + circuit breakers (None = disabled).
    resilience: ResilienceConfig | None = None
    #: Record the first N dispatch decisions (Arlo-family schemes only;
    #: 0 disables). Each entry: time, length, ideal/chosen level,
    #: demoted, fell_back, chosen instance's queue depth.
    trace_decisions: int = 0
    #: Observability: per-request span sampling and the control-plane
    #: timeline (None = fully disabled, the zero-overhead default).
    observability: ObservabilityConfig | None = None
    #: Generative (prefill + decode) data plane. None (the default)
    #: keeps the discriminative single-interval model bit-exactly;
    #: a :class:`~repro.sim.generative.GenerativeConfig` routes the run
    #: through the decode event loop with continuous batching (the
    #: trace must then be a GenerativeTrace).
    generative: GenerativeConfig | None = None

    def __post_init__(self) -> None:
        if self.autoscale_check_ms <= 0:
            raise ConfigurationError("autoscale check period must be positive")
        if self.warmup_ms < 0:
            raise ConfigurationError("warmup cannot be negative")
        if self.trace_decisions < 0:
            raise ConfigurationError("trace_decisions cannot be negative")
        if self.enable_autoscaler and self.autoscaler is None:
            raise ConfigurationError(
                "enable_autoscaler requires an AutoscalerConfig"
            )
        if self.generative is not None:
            if self.trace_decisions:
                raise ConfigurationError(
                    "trace_decisions logs discriminative dispatches only; "
                    "use observability spans on a generative run"
                )
            if self.enable_autoscaler:
                raise ConfigurationError(
                    "generative simulation does not support the autoscaler"
                )
            if self.resilience is not None:
                raise ConfigurationError(
                    "generative simulation does not support the resilience "
                    "manager (retry policy and fault plans are supported)"
                )


def run_simulation(
    scheme: Scheme,
    trace: Trace,
    config: SimulationConfig | None = None,
) -> SimulationResult:
    """Serve ``trace`` with ``scheme`` and collect latency statistics."""
    if not len(trace):
        raise SimulationError("cannot simulate an empty trace")
    config = config or SimulationConfig()
    if config.generative is not None:
        return run_generative_simulation(scheme, trace, config)

    kernel = SimKernel(scheme, config, trace)
    queue = kernel.queue
    metrics = kernel.metrics
    tracer = kernel.tracer
    control = kernel.control
    autoscaler = kernel.autoscaler
    manager = kernel.manager
    deferred = kernel.deferred
    flush_deferred = kernel.flush_deferred

    # Plain Python lists: the arrival loop indexes them once per request
    # and list-of-float indexing avoids a numpy scalar box per access.
    arrivals_ms = trace.arrival_ms.tolist()
    lengths = trace.length.tolist()
    n_requests = len(trace)
    #: Arrivals processed so far == index of the next pending arrival.
    next_arrival = 0
    outstanding = 0
    completed = 0
    #: FIFO of (request_id, arrival, length, attempt) per instance —
    #: consulted when an instance crashes or blacks out and its work
    #: must be re-dispatched.
    inflight: dict[int, deque] = {}
    #: request_id -> attempt token of its live dispatch. Completions
    #: carrying any other token are stale (the work was re-dispatched).
    live_attempt: dict[int, int] = {}
    next_token = 0
    quarantine_violations = 0

    dispatcher = scheme.dispatcher
    trace_decisions = config.trace_decisions
    warmup_ms = config.warmup_ms
    max_events = config.max_events
    on_complete = dispatcher.on_complete
    # Attempt tokens and per-instance FIFOs exist to void and replay
    # in-flight work when an instance crashes or blacks out. Without a
    # fault plan no dispatch is ever voided, so the whole bookkeeping
    # layer (two dict writes + a deque append per request) is skipped.
    track_attempts = config.failures is not None
    # Arlo-family schemes bind past the adapter. Sampled requests and
    # the first `trace_decisions` dispatches take the scheduler's
    # `dispatch`, which returns the decision and narrates the walk into
    # a probe list; every other request takes the allocation-free
    # `dispatch_fast`.
    if isinstance(dispatcher, ArloDispatcher):
        dispatch = dispatcher.scheduler.dispatch_fast
        dispatch_decision = dispatcher.scheduler.dispatch
    else:
        dispatch = dispatcher.dispatch
        dispatch_decision = None

    decision_log: list[dict] = []

    def admit(
        now_ms: float,
        request_id: int,
        arrival_ms: float,
        length: int,
        attempt: int = 0,
    ) -> bool:
        nonlocal outstanding, next_token, quarantine_violations
        span = (
            tracer.begin(now_ms, request_id, arrival_ms, length, attempt)
            if tracer is not None
            else None
        )
        if (
            span is not None
            or (trace_decisions and len(decision_log) < trace_decisions)
        ) and dispatch_decision is not None:
            probes = [] if span is not None else None
            try:
                decision, start, finish = dispatch_decision(
                    now_ms, length, probes
                )
            except CapacityError:
                if span is not None:
                    tracer.on_probes(span, now_ms, probes)
                    tracer.on_defer(span, now_ms)
                return False
            instance = decision.instance
            if span is not None:
                tracer.on_probes(span, now_ms, probes)
                tracer.on_dispatch(
                    span, now_ms, level=decision.level,
                    ideal_level=decision.ideal_level,
                    instance=f"i{instance.instance_id}",
                    fallback=decision.fell_back,
                )
            if len(decision_log) < trace_decisions:
                decision_log.append({
                    "time_ms": now_ms,
                    "request_id": request_id,
                    "length": length,
                    "ideal_level": decision.ideal_level,
                    "chosen_level": decision.level,
                    "demoted": decision.demoted,
                    "fell_back": decision.fell_back,
                    "queue_depth": instance.outstanding - 1,
                })
        else:
            try:
                instance, start, finish = dispatch(now_ms, length)
            except CapacityError:
                if span is not None:
                    tracer.on_defer(span, now_ms)
                return False
            if span is not None:
                tracer.on_dispatch(
                    span, now_ms, level=instance.runtime_index,
                    ideal_level=-1, instance=f"i{instance.instance_id}",
                )
        if manager is not None and manager.is_quarantined(instance.instance_id):
            quarantine_violations += 1
        outstanding += 1
        if track_attempts:
            token = next_token
            next_token = token + 1
            live_attempt[request_id] = token
            fifo = inflight.get(instance.instance_id)
            if fifo is None:
                fifo = inflight[instance.instance_id] = deque()
            fifo.append((request_id, arrival_ms, length, attempt))
        else:
            token = 0
        # Inlined queue.push: `finish` is a float strictly after `now`
        # (service times are positive), so the monotonicity validation
        # is statically satisfied.
        seq = queue._seq
        queue._seq = seq + 1
        rec = COMPLETION_POOL.pop() if COMPLETION_POOL else CompletionRecord()
        rec.request_id = request_id
        rec.instance = instance
        rec.arrival_ms = arrival_ms
        rec.length = length
        rec.runtime_index = instance.runtime_index
        rec.attempt_token = token
        rec.service_ms = finish - start
        heappush(heap, (finish, COMPLETION, seq, rec))
        return True

    def void(victim: RuntimeInstance) -> list:
        """Detach a fault victim's in-flight work for re-dispatch."""
        nonlocal outstanding
        lost = list(inflight.pop(victim.instance_id, ()))
        outstanding -= len(lost)
        for entry in lost:
            live_attempt.pop(entry[0], None)
        return lost

    kernel.admit = admit
    kernel.void = void
    kernel.seed()

    heap = queue._heap
    # MetricsCollector.record, inlined into the completion handler: two
    # list appends per served request (the negative-latency validation
    # is statically satisfied — completions never precede arrivals).
    # `_flush_chunk` rebinds the buffers, so they are re-fetched after
    # every flush.
    lat_buf = metrics._current
    rt_buf = metrics._current_runtime
    CHUNK = metrics._CHUNK
    INF = float("inf")
    COMPLETION = EventKind.COMPLETION
    RESCHEDULE = EventKind.RESCHEDULE
    AUTOSCALE_CHECK = EventKind.AUTOSCALE_CHECK
    # Every built-in dispatcher's `on_complete` is exactly an MLQ
    # refresh, so the completion loop re-keys the instance's own level
    # heap directly (no adapter call, no level lookup). A dispatcher
    # overriding `on_complete` keeps the virtual call.
    fast_on_complete = type(dispatcher).on_complete in (
        _MlqDispatcher.on_complete,
        ArloDispatcher.on_complete,
    )

    popped = queue._popped  # local mirror, written back after the loop
    while True:
        if max_events and popped + next_arrival >= max_events:
            raise SimulationError(
                f"event cap {max_events} hit with work remaining"
            )
        heap_time = heap[0][0] if heap else INF

        # ---- arrival bypass (the strict `<` gives same-time heap
        # events priority, matching ARRIVAL's maximal kind value) ----
        if next_arrival < n_requests and arrivals_ms[next_arrival] < heap_time:
            now = arrivals_ms[next_arrival]
            request_id = next_arrival
            length = lengths[next_arrival]
            next_arrival = request_id + 1
            queue._now = now
            if not admit(now, request_id, now, length):
                deferred.append((request_id, now, length, 0))
                metrics.deferred_requests += 1
            continue
        if not heap:
            break

        entry = heappop(heap)
        now = entry[0]
        kind = entry[1]
        queue._now = now
        popped += 1

        if kind is COMPLETION:
            # Drain every same-timestamp completion in one heap visit
            # (the batch-pop discipline, inlined).
            rec = entry[3]
            while True:
                if track_attempts and (
                    live_attempt.get(rec.request_id) != rec.attempt_token
                ):
                    # stale: work was re-dispatched
                    release_completion(rec)
                else:
                    instance = rec.instance
                    if track_attempts:
                        served = inflight[instance.instance_id].popleft()
                        if served[0] != rec.request_id:  # pragma: no cover - FIFO invariant
                            raise SimulationError(
                                "completion order diverged from FIFO"
                            )
                        del live_attempt[rec.request_id]
                    # --- RuntimeInstance.complete, inlined (the call
                    # runs once per served request) ---
                    out = instance.outstanding - 1
                    if out < 0:
                        raise SchedulingError(
                            f"instance {instance.instance_id} completed "
                            f"with empty queue"
                        )
                    instance.outstanding = out
                    instance.served += 1
                    instance._epoch += 1
                    tracker = instance.tracker
                    if tracker is not None:
                        tracker.on_complete(instance)
                    if fast_on_complete:
                        # --- InstanceHeap.refresh, inlined (re-keys
                        # the instance's own level heap; no-op when it
                        # left the MLQ) ---
                        level_heap = instance._level_heap
                        if level_heap is not None:
                            last = level_heap._last_outstanding
                            key = instance.instance_id
                            if key in last:
                                level_heap.outstanding_total += out - last[key]
                                last[key] = out
                                heappush(
                                    level_heap._heap,
                                    (out, next(level_heap._counter),
                                     instance._epoch, instance),
                                )
                    else:
                        on_complete(instance)
                    outstanding -= 1
                    completed += 1
                    arrival = rec.arrival_ms
                    latency = now - arrival
                    if arrival >= warmup_ms:
                        lat_buf.append(latency)
                        rt_buf.append(rec.runtime_index)
                        if len(lat_buf) == CHUNK:
                            metrics._flush_chunk()
                            lat_buf = metrics._current
                            rt_buf = metrics._current_runtime
                    if tracer is not None:
                        tracer.on_complete(rec.request_id, now, rec.service_ms)
                    if autoscaler is not None:
                        autoscaler.observe(latency)
                    if manager is not None:
                        # instance._service_table[L] == nominal service
                        # + overhead, the exact sum the profiler uses.
                        nominal = instance._service_table[rec.length]
                        ratio = (
                            rec.service_ms / nominal if nominal > 0 else 1.0
                        )
                        kernel.schedule_probe(
                            manager.on_service_sample(now, instance, ratio),
                            instance.instance_id,
                        )
                    if control._pending:
                        control.on_completion(now, instance)
                    # inlined release_completion
                    rec.instance = None
                    COMPLETION_POOL.append(rec)
                    if deferred:
                        flush_deferred(now)
                if heap and heap[0][0] == now and heap[0][1] is COMPLETION:
                    rec = heappop(heap)[3]
                    popped += 1
                else:
                    break

        elif kind is RESCHEDULE:
            if kernel.work_remaining(next_arrival, outstanding):
                kernel.reschedule(now, next_arrival)

        elif kind is AUTOSCALE_CHECK:
            if kernel.work_remaining(next_arrival, outstanding):
                control.autoscale_check(now)
                queue.push(now + config.autoscale_check_ms,
                           EventKind.AUTOSCALE_CHECK)

        else:
            kernel.on_event(now, kind, entry[3])

    queue._popped = popped
    return kernel.finish(
        served=completed,
        arrivals=next_arrival,
        dispatch_stats=(
            dispatcher.scheduler.stats()
            if hasattr(dispatcher, "scheduler")
            else {}
        ),
        quarantine_violations=quarantine_violations,
        decision_log=decision_log,
    )
