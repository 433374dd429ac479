"""The simulator's cold paths, shared by both event loops.

:func:`repro.sim.simulation.run_simulation` (one service interval per
request) and :func:`repro.sim.generative.run_generative_simulation`
(prefill + continuous-batching decode, co-located or on disaggregated
pools) keep their hot paths inline: the arrival bypass, the
``COMPLETION`` drain and the ``DECODE_STEP`` handler. Everything that
runs only on cold events lives here, once:

- the retry policy and budget, :meth:`SimKernel.reinject` and the
  deferred list with :meth:`SimKernel.flush_deferred`;
- victim selection and GPU-count sampling;
- seeding the periodic events and the fault plan;
- the ``INSTANCE_FAILURE`` payload chain (recovery, retry, probe,
  slowdown, blackout, solver fault, crash);
- the Runtime Scheduler period: lazy demand observation, the solve and
  its timeline record, and whether periodic events keep firing;
- ``control_stats`` and :class:`SimulationResult` assembly.

A loop plugs in through two hooks, ``admit`` (place one request; False
when no instance can take it) and ``void`` (detach a fault victim's live
work and return it as ``(request_id, arrival_ms, length, attempt)``
tuples), plus a topology object: :class:`Colocated` for a single pool,
:class:`repro.sim.disagg.DisaggPools` for prefill/decode pools.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.baselines.dispatchers import ArloDispatcher
from repro.baselines.schemes import Scheme
from repro.cluster.autoscaler import (
    HeadroomAutoscaler,
    HeadroomConfig,
    TargetTrackingAutoscaler,
)
from repro.cluster.instance import InstanceStatus, RuntimeInstance
from repro.core.mlq import MultiLevelQueue
from repro.errors import SimulationError
from repro.obs.spans import RequestSpan, RequestTracer
from repro.obs.timeline import ControlTimeline
from repro.resilience.manager import ResilienceManager
from repro.resilience.retry import RetryBudget
from repro.sim.controller import ControlPlane
from repro.sim.engine import EventQueue
from repro.sim.events import (
    BlackoutEndPayload,
    EventKind,
    ProbePayload,
    RecoveryPayload,
    RetryPayload,
    SlowdownEndPayload,
)
from repro.sim.faults import (
    BlackoutEvent,
    FailureEvent,
    SlowdownEvent,
    SolverFaultEvent,
)
from repro.sim.metrics import LatencyStats, MetricsCollector

if TYPE_CHECKING:
    from repro.sim.simulation import SimulationConfig
    from repro.workload.trace import Trace

#: (request_id, arrival_ms, length, retries already consumed).
Lost = tuple[int, float, int, int]


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


class Colocated:
    """Topology hooks of the single-pool layout: every instance serves
    every request and sits in one multi-level queue."""

    def __init__(self, mlq: MultiLevelQueue):
        #: The queue placement walks; fault victims leave it.
        self.mlq = mlq

    def role_detail(self, instance_id: int) -> dict:
        """Extra timeline fields naming a fault victim's role."""
        return {}

    def on_recovered(self, instance: RuntimeInstance, gpu_id: int) -> dict:
        """A crashed GPU rejoined; returns extra timeline fields."""
        self.mlq.add(instance)
        return {}

    def on_resumed(self, instance: RuntimeInstance) -> None:
        """A blacked-out instance came back."""
        if not self.mlq.contains(instance):
            self.mlq.add(instance)

    def on_crashed(self, instance_id: int, gpu_id: int,
                   recovering: bool) -> None:
        """A victim's instance is gone (its GPU may come back)."""


class SimKernel:
    """Event queue, metrics, control plane and fault plane of one run."""

    def __init__(self, scheme: Scheme, config: SimulationConfig,
                 trace: Trace):
        self.wall_start = perf_counter()
        self.scheme = scheme
        self.config = config
        self.n_requests = n_requests = len(trace)
        self._arrivals = trace.arrival_ms
        self._lengths = trace.length
        #: Arrivals already fed to the demand estimator.
        self._observed_upto = 0
        self.queue = queue = EventQueue()
        self.metrics = MetricsCollector(slo_ms=scheme.slo_ms)
        autoscaler = None
        if config.enable_autoscaler:
            if isinstance(config.autoscaler, HeadroomConfig):
                autoscaler = HeadroomAutoscaler(config.autoscaler)
            else:
                autoscaler = TargetTrackingAutoscaler(config.autoscaler)
        self.autoscaler = autoscaler
        obs = config.observability
        self.tracer: RequestTracer | None = None
        self.timeline: ControlTimeline | None = None
        if obs is not None:
            if obs.sample_rate > 0:
                self.tracer = RequestTracer(obs.sample_rate, obs.max_spans)
            if obs.timeline:
                self.timeline = ControlTimeline()
        self.control = ControlPlane(scheme=scheme, queue=queue,
                                    autoscaler=autoscaler,
                                    timeline=self.timeline)
        self.manager: ResilienceManager | None = None
        if config.resilience is not None:
            self.manager = ResilienceManager(
                config=config.resilience, mlq=scheme.mlq,
                timeline=self.timeline,
            )
            if isinstance(scheme.dispatcher, ArloDispatcher):
                scheme.dispatcher.scheduler.gate = self.manager.allow_dispatch
        self.runtime_scheduler = scheme.runtime_scheduler
        self.retry_policy = policy = config.retry
        self.retry_rng = policy.rng() if policy is not None else None
        self.retry_budget = (
            RetryBudget(policy.budget_for(n_requests))
            if policy is not None
            else None
        )
        #: Requests no instance could take yet, as :data:`Lost` tuples.
        self.deferred: list[Lost] = []
        self.pending_retries = 0
        self.retries = 0
        self.failures = 0
        self.requests_lost = 0
        self.slowdowns = 0
        self.blackouts = 0
        self.timeouts = 0
        self.solver_faults = 0
        self.pools = Colocated(scheme.mlq)
        #: Loop hooks, see the module docstring.
        self.admit: Callable[..., bool] | None = None
        self.void: Callable[[RuntimeInstance], list[Lost]] | None = None
        self._last_gpu_count = scheme.cluster.num_gpus
        self.metrics.sample_gpus(0.0, self._last_gpu_count)

    def seed(self) -> None:
        """Push the first scheduler period, autoscale check and every
        planned fault."""
        queue = self.queue
        if self.runtime_scheduler is not None:
            queue.push(self.runtime_scheduler.config.period_ms,
                       EventKind.RESCHEDULE)
        if self.autoscaler is not None:
            queue.push(self.config.autoscale_check_ms,
                       EventKind.AUTOSCALE_CHECK)
        if self.config.failures is not None:
            for fault in self.config.failures.sorted_events():
                queue.push(fault.time_ms, EventKind.INSTANCE_FAILURE, fault)

    def observe(self, arrivals: int) -> None:
        """Feed the first ``arrivals`` requests into the demand estimator.

        Arrivals are observed lazily in vectorised batches instead of
        one scalar `observe` per event. Equivalent to eager observation
        because (a) histogram eviction is monotone in time, and (b) the
        estimator is only *read* by the runtime scheduler, which calls
        this first.
        """
        estimator = self.scheme.demand_estimator
        start = self._observed_upto
        if estimator is not None and start < arrivals:
            estimator.observe_batch(self._arrivals[start:arrivals],
                                    self._lengths[start:arrivals])
            self._observed_upto = arrivals

    def work_remaining(self, arrivals: int, outstanding: int) -> bool:
        """Whether periodic events should keep firing."""
        # `arrivals + 1 < n` mirrors the classic heap-per-arrival loop,
        # where the next pending arrival already sat in the heap and did
        # not count as remaining work.
        return (
            arrivals + 1 < self.n_requests
            or outstanding > 0
            or bool(self.deferred)
            or self.pending_retries > 0
            or self.control.has_pending_work
        )

    # -- lost and deferred work -------------------------------------------
    def reinject(self, now_ms: float, request_id: int, arrival_ms: float,
                 length: int, attempt: int) -> None:
        """Re-dispatch lost work: backoff retry while the budget lasts,
        plain re-admission (the legacy path) afterwards."""
        policy = self.retry_policy
        if (
            policy is not None
            and attempt < policy.max_attempts
            and self.retry_budget.try_consume()
        ):
            delay = policy.delay_ms(attempt, self.retry_rng)
            self.queue.push(
                now_ms + delay,
                EventKind.INSTANCE_FAILURE,
                RetryPayload(request_id, arrival_ms, length, attempt + 1),
            )
            self.retries += 1
            self.pending_retries += 1
            tracer = self.tracer
            if tracer is not None:
                span = tracer.active.get(request_id)
                if span is not None:
                    tracer.on_retry(span, now_ms, attempt + 1, delay)
        elif not self.admit(now_ms, request_id, arrival_ms, length, attempt):
            self.deferred.append((request_id, arrival_ms, length, attempt))

    def flush_deferred(self, now_ms: float) -> None:
        deferred = self.deferred
        if not deferred:
            return
        admit = self.admit
        still: list[Lost] = []
        # Runs on every completion while requests wait; explicit
        # arguments call twice as fast as `admit(now_ms, *entry)`.
        for entry in deferred:
            request_id, arrival, length, attempt = entry
            if not admit(now_ms, request_id, arrival, length, attempt):
                still.append(entry)
        deferred[:] = still

    def sample_gpus(self, now_ms: float) -> None:
        count = self.scheme.cluster.num_gpus
        if count != self._last_gpu_count:
            self.metrics.sample_gpus(now_ms, count)
            self._last_gpu_count = count

    def pick_victim(self, rank: int) -> RuntimeInstance | None:
        """The ``rank``-th busiest active instance at fire time.

        ``heapq.nsmallest(k+1, ...)[-1]`` equals ``sorted(...)[k]`` for
        the same key — a partial selection in O(n log k) instead of a
        full O(n log n) sort on every injected fault event.
        """
        active = self.scheme.cluster.active_instances()
        if not active:
            return None
        k = min(rank, len(active) - 1)
        top = heapq.nsmallest(
            k + 1, active, key=lambda i: (-i.outstanding, i.instance_id)
        )
        return top[-1]

    def schedule_probe(self, probe_at_ms: float | None,
                       instance_id: int) -> None:
        if probe_at_ms is not None:
            self.queue.push(probe_at_ms, EventKind.INSTANCE_FAILURE,
                            ProbePayload(instance_id))

    # -- control plane ------------------------------------------------------
    def reschedule(self, now_ms: float, arrivals: int,
                   rebalance: Callable[[float], None] | None = None) -> None:
        """One Runtime Scheduler period: observe the first ``arrivals``
        requests, solve the allocation and start its replacement plan
        (``rebalance`` replaces both on disaggregated pools), then book
        the next period."""
        self.observe(arrivals)
        scheduler = self.runtime_scheduler
        if rebalance is not None:
            rebalance(now_ms)
        else:
            result, plan = scheduler.step(now_ms, self.scheme.cluster)
            timeline = self.timeline
            if timeline is not None:
                solve_detail = {}
                if result.solver == "anytime" or "rung" in result.stats:
                    solve_detail = {
                        "rung": result.stats.get("rung"),
                        "deadline_ms": result.stats.get("deadline_ms"),
                        "deadline_hit": result.stats.get("deadline_hit"),
                    }
                timeline.record(
                    now_ms, "allocation", "solve",
                    provenance=scheduler.provenance_of(result),
                    solver=result.solver,
                    objective=result.objective,
                    solve_ms=result.solve_time_s * 1000.0,
                    plan_steps=len(plan),
                    **solve_detail,
                )
                presolve = scheduler.last_presolve
                if presolve is not None:
                    timeline.record(
                        now_ms, "allocation", "presolve",
                        provenance="forecast",
                        outcome=presolve.get("outcome"),
                        rung=presolve.get("rung"),
                        solve_ms=presolve.get("elapsed_ms"),
                    )
            self.control.start_plan(now_ms, plan)
        self.metrics.sample_allocation(now_ms, self.scheme.cluster.allocation())
        self.queue.push(now_ms + scheduler.config.period_ms,
                        EventKind.RESCHEDULE)

    def on_event(self, now_ms: float, kind: EventKind, payload) -> None:
        """Every cold event kind both loops share."""
        if kind is EventKind.INSTANCE_FAILURE:
            self.on_fault(now_ms, payload)
        elif kind is EventKind.REPLACEMENT_READY:
            self.control.on_replacement_event(now_ms, payload)
            self.sample_gpus(now_ms)
            self.flush_deferred(now_ms)
        elif kind is EventKind.SCALE_OUT_READY:
            self.control.on_scale_out_ready(now_ms, payload)
            self.sample_gpus(now_ms)
            self.flush_deferred(now_ms)
        else:  # pragma: no cover - the enum is closed
            raise SimulationError(f"unhandled event kind {kind}")

    # -- fault plane --------------------------------------------------------
    def _unqueue(self, victim: RuntimeInstance) -> None:
        mlq = self.pools.mlq
        if mlq.contains(victim):
            mlq.remove(victim)

    def _reinject_all(self, now_ms: float, lost: list[Lost]) -> None:
        for request_id, arrival, length, attempt in lost:
            self.reinject(now_ms, request_id, arrival, length, attempt)

    def on_fault(self, now: float, payload) -> None:
        """One ``INSTANCE_FAILURE`` event: a planned fault, the end of a
        slowdown or blackout, a recovery, a retry or a breaker probe."""
        cluster = self.scheme.cluster
        queue = self.queue
        timeline = self.timeline
        manager = self.manager

        if isinstance(payload, RecoveryPayload):
            gpu = cluster.gpus[payload.gpu_id]
            recovered = cluster.deploy(payload.runtime_index, gpu)
            role = self.pools.on_recovered(recovered, payload.gpu_id)
            if timeline is not None:
                timeline.record(
                    now, "fault", "recovery",
                    instance=recovered.instance_id,
                    runtime_index=payload.runtime_index,
                    **role,
                )
            self.flush_deferred(now)

        elif isinstance(payload, RetryPayload):
            self.pending_retries -= 1
            if not self.admit(now, payload.request_id, payload.arrival_ms,
                              payload.length, payload.attempt):
                self.deferred.append((payload.request_id, payload.arrival_ms,
                                      payload.length, payload.attempt))

        elif isinstance(payload, ProbePayload):
            if manager is not None:
                inst = cluster.instances.get(payload.instance_id)
                if inst is None:
                    manager.on_instance_gone(payload.instance_id)
                elif manager.on_probe_window(now, inst):
                    self.flush_deferred(now)

        elif isinstance(payload, SlowdownEvent):
            victim = self.pick_victim(payload.victim_rank)
            if victim is not None:
                victim.slow_factor = payload.factor
                self.slowdowns += 1
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
            inst = cluster.instances.get(payload.instance_id)
            if inst is not None:
                inst.slow_factor = 1.0

        elif isinstance(payload, BlackoutEvent):
            victim = self.pick_victim(payload.victim_rank)
            if victim is not None:
                vid = victim.instance_id
                role = self.pools.role_detail(vid)
                lost = self.void(victim)
                self._unqueue(victim)
                victim.suspend()
                self.blackouts += 1
                self.timeouts += len(lost)
                if timeline is not None:
                    timeline.record(
                        now, "fault", "blackout",
                        instance=vid,
                        **role,
                        duration_ms=payload.duration_ms,
                        voided=len(lost),
                    )
                self._reinject_all(now, lost)
                if manager is not None and lost:
                    self.schedule_probe(
                        manager.on_timeouts(now, victim, len(lost)), vid
                    )
                queue.push(
                    now + payload.duration_ms,
                    EventKind.INSTANCE_FAILURE,
                    BlackoutEndPayload(vid),
                )

        elif isinstance(payload, BlackoutEndPayload):
            inst = cluster.instances.get(payload.instance_id)
            if inst is not None and inst.status is InstanceStatus.SUSPENDED:
                inst.resume()
                if manager is not None:
                    manager.requeue(inst)
                else:
                    self.pools.on_resumed(inst)
                self.flush_deferred(now)

        elif isinstance(payload, SolverFaultEvent):
            if self.runtime_scheduler is not None:
                self.runtime_scheduler.inject_solver_failures(payload.count)
                self.solver_faults += payload.count
                if timeline is not None:
                    timeline.record(
                        now, "fault", "solver_fault",
                        count=payload.count,
                    )

        elif isinstance(payload, FailureEvent):
            victim = self.pick_victim(payload.victim_rank)
            if victim is None:
                return  # nothing left to kill
            vid = victim.instance_id
            role = self.pools.role_detail(vid)
            lost = self.void(victim)
            self._unqueue(victim)
            self.control.note_failure(vid)
            if manager is not None:
                manager.on_instance_gone(vid)
            gpu, dropped = cluster.crash_instance(victim)
            recovering = payload.recovery_ms is not None
            self.pools.on_crashed(vid, gpu.gpu_id, recovering)
            self.failures += 1
            self.requests_lost += dropped
            if timeline is not None:
                timeline.record(
                    now, "fault", "crash",
                    instance=vid,
                    **role,
                    voided=len(lost),
                    recovery_ms=(
                        payload.recovery_ms if recovering else -1.0
                    ),
                )
            if recovering:
                queue.push(
                    now + payload.recovery_ms,
                    EventKind.INSTANCE_FAILURE,
                    RecoveryPayload(gpu_id=gpu.gpu_id,
                                    runtime_index=victim.runtime_index),
                )
            else:
                cluster.release_gpu(gpu.gpu_id, now)
                self.sample_gpus(now)
            self._reinject_all(now, lost)

        else:
            raise SimulationError(f"unhandled fault payload {payload!r}")

    # -- result -------------------------------------------------------------
    def finish(
        self,
        *,
        served: int,
        arrivals: int,
        dispatch_stats: dict[str, float],
        extra_stats: dict[str, int] | None = None,
        quarantine_violations: int = 0,
        decision_log: list[dict] | None = None,
    ) -> SimulationResult:
        """Check conservation and assemble the run's result.

        ``arrivals`` counts the bypassed arrivals, which are reported as
        processed events so the figure is comparable with the classic
        heap-per-arrival loop.
        """
        self.observe(arrivals)
        if served != self.n_requests:
            raise SimulationError(
                f"simulation ended with {self.n_requests - served} "
                f"unserved requests"
            )
        scheduler = self.runtime_scheduler
        manager = self.manager
        control = self.control
        budget = self.retry_budget
        control_stats = {
            "replacements": control.replacements_executed,
            "scale_outs": control.scale_outs,
            "scale_ins": control.scale_ins,
            "deferred": self.metrics.deferred_requests,
            "failures": self.failures,
            "requests_lost": self.requests_lost,
            "slowdowns": self.slowdowns,
            "blackouts": self.blackouts,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "retry_budget_exhausted": (
                budget.exhausted_events if budget is not None else 0
            ),
            "quarantines": manager.quarantines if manager is not None else 0,
            "breaker_trips": (
                manager.breaker_trips if manager is not None else 0
            ),
            "breaker_recoveries": (
                manager.breaker_recoveries if manager is not None else 0
            ),
            "quarantine_violations": quarantine_violations,
            "solver_faults_injected": self.solver_faults,
            "solver_fallbacks": (
                scheduler.solver_fallbacks if scheduler is not None else 0
            ),
        }
        if scheduler is not None and scheduler.config.solver_ladder:
            # Anytime-ladder counters: plain ints so shard merges stay a sum.
            anytime = scheduler.anytime_stats()
            control_stats.update({
                "anytime_periods": anytime.get("periods", 0),
                "anytime_exact_hits": anytime.get("boundary_exact_hits", 0),
                "anytime_approx_hits": anytime.get("boundary_approx_hits", 0),
                "anytime_forecast_hits": anytime.get(
                    "boundary_forecast_hits", 0),
                "anytime_solves": anytime.get("solves", 0),
                "anytime_deadline_hits": anytime.get("deadline_hits", 0),
                "anytime_deadline_misses": anytime.get("deadline_misses", 0),
                "anytime_presolves": anytime.get("presolves", 0),
                "anytime_presolve_covered": anytime.get("presolve_covered", 0),
                "anytime_presolve_failures": anytime.get(
                    "presolve_failures", 0),
            })
        if extra_stats:
            control_stats.update(extra_stats)
        metrics = self.metrics
        end_ms = self.queue.now_ms
        return SimulationResult(
            scheme_name=self.scheme.name,
            stats=metrics.stats(),
            metrics=metrics,
            end_ms=end_ms,
            events_processed=self.queue.events_processed + arrivals,
            time_weighted_gpus=metrics.time_weighted_gpus(end_ms),
            dispatch_stats=dispatch_stats,
            control_stats=control_stats,
            decision_log=decision_log if decision_log is not None else [],
            spans=self.tracer.finished if self.tracer is not None else [],
            timeline=self.timeline,
            wall_s=perf_counter() - self.wall_start,
        )
