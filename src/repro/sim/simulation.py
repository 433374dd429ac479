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
in — the counters land in ``SimulationResult.control_stats``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from heapq import heappop, heappush
from time import perf_counter

import numpy as np

from collections import deque

from repro.baselines.dispatchers import ArloDispatcher, _MlqDispatcher
from repro.baselines.schemes import Scheme
from repro.cluster.autoscaler import (
    AutoscalerConfig,
    HeadroomAutoscaler,
    HeadroomConfig,
    TargetTrackingAutoscaler,
)
from repro.cluster.instance import InstanceStatus, RuntimeInstance
from repro.errors import (
    CapacityError,
    ConfigurationError,
    SchedulingError,
    SimulationError,
)
from repro.obs.spans import ObservabilityConfig, RequestSpan, RequestTracer
from repro.obs.timeline import ControlTimeline
from repro.resilience.manager import ResilienceConfig, ResilienceManager
from repro.resilience.retry import RetryBudget, RetryPolicy
from repro.sim.controller import ControlPlane
from repro.sim.engine import EventQueue
from repro.sim.events import (
    COMPLETION_POOL,
    BlackoutEndPayload,
    CompletionRecord,
    EventKind,
    ProbePayload,
    RecoveryPayload,
    RetryPayload,
    SlowdownEndPayload,
    release_completion,
)
from repro.sim.faults import (
    BlackoutEvent,
    FailureEvent,
    FaultPlan,
    SlowdownEvent,
    SolverFaultEvent,
)
from repro.sim.metrics import LatencyStats, MetricsCollector
from repro.units import SECOND
from repro.workload.trace import Trace


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
    #: trace must then be a GenerativeTrace). String annotation + lazy
    #: import keep the discriminative import graph unchanged.
    generative: "object | None" = None

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


@dataclass
class SimulationResult:
    """Everything a benchmark needs to print a paper row."""

    scheme_name: str
    stats: LatencyStats
    metrics: MetricsCollector
    end_ms: float
    events_processed: int
    time_weighted_gpus: float
    dispatch_stats: dict[str, float] = field(default_factory=dict)
    control_stats: dict[str, int] = field(default_factory=dict)
    #: First N dispatch decisions when SimulationConfig.trace_decisions
    #: is set (Arlo-family schemes).
    decision_log: list[dict] = field(default_factory=list)
    #: Finished request spans (only when observability sampling is on).
    spans: list[RequestSpan] = field(default_factory=list)
    #: Control-plane timeline (only when observability is on).
    timeline: ControlTimeline | None = None
    #: Wall-clock seconds spent inside :func:`run_simulation` (the
    #: sharded drivers aggregate these into throughput figures).
    wall_s: float = 0.0

    @property
    def mean_ms(self) -> float:
        return self.stats.mean_ms

    @property
    def p98_ms(self) -> float:
        return self.stats.p98_ms

    def latencies(self) -> np.ndarray:
        return self.metrics.latencies()


def run_simulation(
    scheme: Scheme,
    trace: Trace,
    config: SimulationConfig | None = None,
) -> SimulationResult:
    """Serve ``trace`` with ``scheme`` and collect latency statistics."""
    wall_start = perf_counter()
    if not len(trace):
        raise SimulationError("cannot simulate an empty trace")
    config = config or SimulationConfig()
    if config.generative is not None:
        if getattr(config.generative, "disagg", None) is not None:
            from repro.sim.disagg import run_disagg_simulation

            return run_disagg_simulation(scheme, trace, config)
        from repro.sim.generative import run_generative_simulation

        return run_generative_simulation(scheme, trace, config)

    queue = EventQueue()
    metrics = MetricsCollector(slo_ms=scheme.slo_ms)
    autoscaler = None
    if config.enable_autoscaler:
        if isinstance(config.autoscaler, HeadroomConfig):
            autoscaler = HeadroomAutoscaler(config.autoscaler)
        else:
            autoscaler = TargetTrackingAutoscaler(config.autoscaler)
    obs = config.observability
    tracer: RequestTracer | None = None
    timeline: ControlTimeline | None = None
    if obs is not None:
        if obs.sample_rate > 0:
            tracer = RequestTracer(obs.sample_rate, obs.max_spans)
        if obs.timeline:
            timeline = ControlTimeline()
    control = ControlPlane(
        scheme=scheme, queue=queue, autoscaler=autoscaler, timeline=timeline
    )

    manager: ResilienceManager | None = None
    if config.resilience is not None:
        manager = ResilienceManager(
            config=config.resilience, mlq=scheme.mlq, timeline=timeline
        )
        if isinstance(scheme.dispatcher, ArloDispatcher):
            scheme.dispatcher.scheduler.gate = manager.allow_dispatch

    retry_policy = config.retry
    retry_rng = retry_policy.rng() if retry_policy is not None else None
    retry_budget = (
        RetryBudget(retry_policy.budget_for(len(trace)))
        if retry_policy is not None
        else None
    )

    arrivals_np = trace.arrival_ms
    lengths_np = trace.length
    # Plain Python lists: the arrival loop indexes them once per request
    # and list-of-float indexing avoids a numpy scalar box per access.
    arrivals_ms = arrivals_np.tolist()
    lengths = lengths_np.tolist()
    n_requests = len(trace)
    #: Arrivals processed so far == index of the next pending arrival.
    next_arrival = 0
    #: Arrivals already flushed into the demand estimator.
    observed_upto = 0
    #: (request_id, arrival, length, retries already consumed)
    deferred: list[tuple[int, float, int, int]] = []
    outstanding = 0
    completed = 0
    last_gpu_count = scheme.cluster.num_gpus
    metrics.sample_gpus(0.0, last_gpu_count)
    #: FIFO of (request_id, arrival, length, attempt) per instance —
    #: consulted when an instance crashes or blacks out and its work
    #: must be re-dispatched.
    inflight: dict[int, deque] = {}
    #: request_id -> attempt token of its live dispatch. Completions
    #: carrying any other token are stale (the work was re-dispatched).
    live_attempt: dict[int, int] = {}
    next_token = 0
    failures_injected = 0
    requests_lost = 0
    slowdowns_injected = 0
    blackouts_injected = 0
    solver_faults_injected = 0
    timeouts = 0
    retries_scheduled = 0
    pending_retries = 0
    quarantine_violations = 0

    dispatcher = scheme.dispatcher
    estimator = scheme.demand_estimator
    runtime_scheduler = scheme.runtime_scheduler
    trace_decisions = config.trace_decisions
    warmup_ms = config.warmup_ms
    max_events = config.max_events
    on_complete = dispatcher.on_complete
    # Attempt tokens and per-instance FIFOs exist to void and replay
    # in-flight work when an instance crashes or blacks out. Without a
    # fault plan no dispatch is ever voided, so the whole bookkeeping
    # layer (two dict writes + a deque append per request) is skipped.
    track_attempts = config.failures is not None
    # The tracing path goes through `dispatch` so `last_decision` is
    # populated; the default path takes the allocation-free fast lane
    # (bound past the adapter when the scheme is Arlo-family).
    if trace_decisions:
        dispatch = dispatcher.dispatch
    elif isinstance(dispatcher, ArloDispatcher):
        dispatch = dispatcher.scheduler.dispatch_fast
    else:
        dispatch = dispatcher.dispatch_fast
    # Sampled requests take the narrated Algorithm-1 walk when the
    # scheme exposes one (Arlo family); baseline dispatchers keep their
    # normal path and the span records only the dispatch itself.
    traced_dispatch = (
        dispatcher.scheduler.dispatch_traced
        if tracer is not None
        and not trace_decisions
        and isinstance(dispatcher, ArloDispatcher)
        else None
    )

    def flush_observations() -> None:
        """Feed every arrival processed so far into the demand estimator.

        Arrivals are observed lazily in vectorised batches instead of
        one scalar `observe` per event. Equivalent to eager observation
        because (a) histogram eviction is monotone in time, and (b) the
        estimator is only *read* by the runtime scheduler, which calls
        this first.
        """
        nonlocal observed_upto
        if estimator is not None and observed_upto < next_arrival:
            estimator.observe_batch(
                arrivals_np[observed_upto:next_arrival],
                lengths_np[observed_upto:next_arrival],
            )
            observed_upto = next_arrival

    def work_remaining() -> bool:
        # `next_arrival + 1 < n` mirrors the classic heap-per-arrival
        # loop, where the next pending arrival already sat in the heap
        # and did not count as remaining work.
        return (
            next_arrival + 1 < n_requests
            or outstanding > 0
            or bool(deferred)
            or pending_retries > 0
            or control.has_pending_work
        )

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
        if span is not None and traced_dispatch is not None:
            probes: list[tuple[int, float, float, str]] = []
            try:
                decision, start, finish = traced_dispatch(
                    now_ms, length, probes
                )
            except CapacityError:
                tracer.on_probes(span, now_ms, probes)
                tracer.on_defer(span, now_ms)
                return False
            instance = decision.instance
            tracer.on_probes(span, now_ms, probes)
            tracer.on_dispatch(
                span, now_ms, level=decision.level,
                ideal_level=decision.ideal_level,
                instance=f"i{instance.instance_id}",
                fallback=decision.fell_back,
            )
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
        if trace_decisions and len(decision_log) < trace_decisions:
            decision = getattr(dispatcher, "last_decision", None)
            if decision is not None:
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

    def reinject(
        now_ms: float, request_id: int, arrival_ms: float, length: int,
        attempt: int,
    ) -> None:
        """Re-dispatch lost work: backoff retry while the budget lasts,
        plain re-admission (the legacy path) afterwards."""
        nonlocal retries_scheduled, pending_retries
        if (
            retry_policy is not None
            and attempt < retry_policy.max_attempts
            and retry_budget.try_consume()
        ):
            delay = retry_policy.delay_ms(attempt, retry_rng)
            queue.push(
                now_ms + delay,
                EventKind.INSTANCE_FAILURE,
                RetryPayload(request_id, arrival_ms, length, attempt + 1),
            )
            retries_scheduled += 1
            pending_retries += 1
            if tracer is not None:
                span = tracer.active.get(request_id)
                if span is not None:
                    tracer.on_retry(span, now_ms, attempt + 1, delay)
        elif not admit(now_ms, request_id, arrival_ms, length, attempt):
            deferred.append((request_id, arrival_ms, length, attempt))

    def void_and_reinject(now_ms: float, lost: list) -> None:
        nonlocal outstanding
        outstanding -= len(lost)
        for request_id, arrival, length, attempt in lost:
            live_attempt.pop(request_id, None)
            reinject(now_ms, request_id, arrival, length, attempt)

    def flush_deferred(now_ms: float) -> None:
        if not deferred:
            return
        still: list[tuple[int, float, int, int]] = []
        for request_id, arrival, length, attempt in deferred:
            if not admit(now_ms, request_id, arrival, length, attempt):
                still.append((request_id, arrival, length, attempt))
        deferred[:] = still

    def sample_gpus(now_ms: float) -> None:
        nonlocal last_gpu_count
        count = scheme.cluster.num_gpus
        if count != last_gpu_count:
            metrics.sample_gpus(now_ms, count)
            last_gpu_count = count

    def pick_victim(rank: int) -> RuntimeInstance | None:
        """The ``rank``-th busiest active instance at fire time.

        ``heapq.nsmallest(k+1, ...)[-1]`` equals ``sorted(...)[k]`` for
        the same key — a partial selection in O(n log k) instead of a
        full O(n log n) sort on every injected fault event.
        """
        active = scheme.cluster.active_instances()
        if not active:
            return None
        k = min(rank, len(active) - 1)
        top = heapq.nsmallest(
            k + 1, active, key=lambda i: (-i.outstanding, i.instance_id)
        )
        return top[-1]

    def schedule_probe(probe_at_ms: float | None, instance_id: int) -> None:
        if probe_at_ms is not None:
            queue.push(probe_at_ms, EventKind.INSTANCE_FAILURE,
                       ProbePayload(instance_id))

    if runtime_scheduler is not None:
        queue.push(runtime_scheduler.config.period_ms, EventKind.RESCHEDULE)
    if autoscaler is not None:
        queue.push(config.autoscale_check_ms, EventKind.AUTOSCALE_CHECK)
    if config.failures is not None:
        for fault in config.failures.sorted_events():
            queue.push(fault.time_ms, EventKind.INSTANCE_FAILURE, fault)

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
    REPLACEMENT_READY = EventKind.REPLACEMENT_READY
    AUTOSCALE_CHECK = EventKind.AUTOSCALE_CHECK
    SCALE_OUT_READY = EventKind.SCALE_OUT_READY
    INSTANCE_FAILURE = EventKind.INSTANCE_FAILURE
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
                        schedule_probe(
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
            if runtime_scheduler is not None and work_remaining():
                flush_observations()
                _result, plan = runtime_scheduler.step(now, scheme.cluster)
                if timeline is not None:
                    solve_detail = {}
                    if _result.solver == "anytime" or "rung" in _result.stats:
                        solve_detail = {
                            "rung": _result.stats.get("rung"),
                            "deadline_ms": _result.stats.get("deadline_ms"),
                            "deadline_hit": _result.stats.get("deadline_hit"),
                        }
                    timeline.record(
                        now, "allocation", "solve",
                        provenance=runtime_scheduler.provenance_of(_result),
                        solver=_result.solver,
                        objective=_result.objective,
                        solve_ms=_result.solve_time_s * 1000.0,
                        plan_steps=len(plan),
                        **solve_detail,
                    )
                    presolve = runtime_scheduler.last_presolve
                    if presolve is not None:
                        timeline.record(
                            now, "allocation", "presolve",
                            provenance="forecast",
                            outcome=presolve.get("outcome"),
                            rung=presolve.get("rung"),
                            solve_ms=presolve.get("elapsed_ms"),
                        )
                control.start_plan(now, plan)
                metrics.sample_allocation(now, scheme.cluster.allocation())
                queue.push(
                    now + runtime_scheduler.config.period_ms,
                    EventKind.RESCHEDULE,
                )

        elif kind is REPLACEMENT_READY:
            control.on_replacement_event(now, entry[3])
            sample_gpus(now)
            flush_deferred(now)

        elif kind is AUTOSCALE_CHECK:
            if autoscaler is not None and work_remaining():
                control.autoscale_check(now)
                queue.push(now + config.autoscale_check_ms,
                           EventKind.AUTOSCALE_CHECK)

        elif kind is SCALE_OUT_READY:
            control.on_scale_out_ready(now, entry[3])
            sample_gpus(now)
            flush_deferred(now)

        elif kind is INSTANCE_FAILURE:
            payload = entry[3]

            if isinstance(payload, RecoveryPayload):
                gpu = scheme.cluster.gpus[payload.gpu_id]
                recovered = scheme.cluster.deploy(payload.runtime_index, gpu)
                scheme.mlq.add(recovered)
                if timeline is not None:
                    timeline.record(
                        now, "fault", "recovery",
                        instance=recovered.instance_id,
                        runtime_index=payload.runtime_index,
                    )
                flush_deferred(now)

            elif isinstance(payload, RetryPayload):
                pending_retries -= 1
                if not admit(now, payload.request_id, payload.arrival_ms,
                             payload.length, payload.attempt):
                    deferred.append((payload.request_id, payload.arrival_ms,
                                     payload.length, payload.attempt))

            elif isinstance(payload, ProbePayload):
                if manager is not None:
                    inst = scheme.cluster.instances.get(payload.instance_id)
                    if inst is None:
                        manager.on_instance_gone(payload.instance_id)
                    elif manager.on_probe_window(now, inst):
                        flush_deferred(now)

            elif isinstance(payload, SlowdownEvent):
                victim = pick_victim(payload.victim_rank)
                if victim is not None:
                    victim.slow_factor = payload.factor
                    slowdowns_injected += 1
                    if timeline is not None:
                        timeline.record(
                            now, "fault", "slowdown",
                            instance=victim.instance_id,
                            factor=payload.factor,
                        )
                    if payload.duration_ms is not None:
                        queue.push(
                            now + payload.duration_ms,
                            EventKind.INSTANCE_FAILURE,
                            SlowdownEndPayload(victim.instance_id),
                        )

            elif isinstance(payload, SlowdownEndPayload):
                inst = scheme.cluster.instances.get(payload.instance_id)
                if inst is not None:
                    inst.slow_factor = 1.0

            elif isinstance(payload, BlackoutEvent):
                victim = pick_victim(payload.victim_rank)
                if victim is not None:
                    lost_requests = list(
                        inflight.pop(victim.instance_id, ())
                    )
                    if scheme.mlq.contains(victim):
                        scheme.mlq.remove(victim)
                    victim.suspend()
                    blackouts_injected += 1
                    timeouts += len(lost_requests)
                    if timeline is not None:
                        timeline.record(
                            now, "fault", "blackout",
                            instance=victim.instance_id,
                            duration_ms=payload.duration_ms,
                            voided=len(lost_requests),
                        )
                    void_and_reinject(now, lost_requests)
                    if manager is not None and lost_requests:
                        schedule_probe(
                            manager.on_timeouts(now, victim,
                                                len(lost_requests)),
                            victim.instance_id,
                        )
                    queue.push(
                        now + payload.duration_ms,
                        EventKind.INSTANCE_FAILURE,
                        BlackoutEndPayload(victim.instance_id),
                    )

            elif isinstance(payload, BlackoutEndPayload):
                inst = scheme.cluster.instances.get(payload.instance_id)
                if inst is not None and inst.status is InstanceStatus.SUSPENDED:
                    inst.resume()
                    if manager is not None:
                        manager.requeue(inst)
                    elif not scheme.mlq.contains(inst):
                        scheme.mlq.add(inst)
                    flush_deferred(now)

            elif isinstance(payload, SolverFaultEvent):
                if runtime_scheduler is not None:
                    runtime_scheduler.inject_solver_failures(payload.count)
                    solver_faults_injected += payload.count
                    if timeline is not None:
                        timeline.record(
                            now, "fault", "solver_fault",
                            count=payload.count,
                        )

            elif isinstance(payload, FailureEvent):
                victim = pick_victim(payload.victim_rank)
                if victim is None:
                    continue  # nothing left to kill
                lost_requests = list(inflight.pop(victim.instance_id, ()))
                if scheme.mlq.contains(victim):
                    scheme.mlq.remove(victim)
                control.note_failure(victim.instance_id)
                if manager is not None:
                    manager.on_instance_gone(victim.instance_id)
                gpu, lost = scheme.cluster.crash_instance(victim)
                failures_injected += 1
                requests_lost += lost
                if timeline is not None:
                    timeline.record(
                        now, "fault", "crash",
                        instance=victim.instance_id,
                        voided=len(lost_requests),
                        recovery_ms=(
                            payload.recovery_ms
                            if payload.recovery_ms is not None
                            else -1.0
                        ),
                    )
                if payload.recovery_ms is not None:
                    queue.push(
                        now + payload.recovery_ms,
                        EventKind.INSTANCE_FAILURE,
                        RecoveryPayload(gpu_id=gpu.gpu_id,
                                        runtime_index=victim.runtime_index),
                    )
                else:
                    scheme.cluster.release_gpu(gpu.gpu_id, now)
                    sample_gpus(now)
                void_and_reinject(now, lost_requests)

            else:
                raise SimulationError(
                    f"unhandled fault payload {payload!r}"
                )

        else:  # pragma: no cover - the enum is closed
            raise SimulationError(f"unhandled event kind {kind}")

    queue._popped = popped
    flush_observations()
    if completed != n_requests:
        raise SimulationError(
            f"simulation ended with {n_requests - completed} unserved requests"
        )

    end_ms = queue.now_ms
    control_stats = {
        "replacements": control.replacements_executed,
        "scale_outs": control.scale_outs,
        "scale_ins": control.scale_ins,
        "deferred": metrics.deferred_requests,
        "failures": failures_injected,
        "requests_lost": requests_lost,
        "slowdowns": slowdowns_injected,
        "blackouts": blackouts_injected,
        "timeouts": timeouts,
        "retries": retries_scheduled,
        "retry_budget_exhausted": (
            retry_budget.exhausted_events if retry_budget is not None else 0
        ),
        "quarantines": manager.quarantines if manager is not None else 0,
        "breaker_trips": manager.breaker_trips if manager is not None else 0,
        "breaker_recoveries": (
            manager.breaker_recoveries if manager is not None else 0
        ),
        "quarantine_violations": quarantine_violations,
        "solver_faults_injected": solver_faults_injected,
        "solver_fallbacks": (
            runtime_scheduler.solver_fallbacks
            if runtime_scheduler is not None
            else 0
        ),
    }
    if runtime_scheduler is not None and runtime_scheduler.config.solver_ladder:
        # Anytime-ladder counters: plain ints so shard merges stay a sum.
        anytime = runtime_scheduler.anytime_stats()
        control_stats.update({
            "anytime_periods": anytime.get("periods", 0),
            "anytime_exact_hits": anytime.get("boundary_exact_hits", 0),
            "anytime_approx_hits": anytime.get("boundary_approx_hits", 0),
            "anytime_forecast_hits": anytime.get("boundary_forecast_hits", 0),
            "anytime_solves": anytime.get("solves", 0),
            "anytime_deadline_hits": anytime.get("deadline_hits", 0),
            "anytime_deadline_misses": anytime.get("deadline_misses", 0),
            "anytime_presolves": anytime.get("presolves", 0),
            "anytime_presolve_covered": anytime.get("presolve_covered", 0),
            "anytime_presolve_failures": anytime.get("presolve_failures", 0),
        })
    return SimulationResult(
        scheme_name=scheme.name,
        stats=metrics.stats(),
        metrics=metrics,
        end_ms=end_ms,
        # Bypassed arrivals count as processed events so the figure is
        # comparable with the classic heap-per-arrival loop.
        events_processed=queue.events_processed + next_arrival,
        time_weighted_gpus=metrics.time_weighted_gpus(end_ms),
        dispatch_stats=(
            dispatcher.scheduler.stats()
            if hasattr(dispatcher, "scheduler")
            else {}
        ),
        control_stats=control_stats,
        decision_log=decision_log,
        spans=tracer.finished if tracer is not None else [],
        timeline=timeline,
        wall_s=perf_counter() - wall_start,
    )
