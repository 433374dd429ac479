"""Generative (prefill + decode) serving on the discrete-event core.

The discriminative simulator models a request as one indivisible
service interval. Generative LLM serving is different in kind: a
request *prefills* its prompt once, then emits tokens over many decode
*steps*, and instances run those steps as a batch whose membership can
change at every step boundary (continuous batching). This module adds
that data plane on top of the same pooled event queue, the same
length-aware Algorithm-1 placement, and the same control and fault
planes (:class:`~repro.sim.kernel.SimKernel`). One loop serves both
topologies:

- **Co-located** (``GenerativeConfig.disagg`` unset): one pool.
  Placement stays Arlo's Algorithm 1 over *prefill* length: the
  candidate walk (`ArloRequestScheduler._walk`) picks a staircase tier
  whose ``max_length`` fits the prompt, probing congestion
  ``P = outstanding / capacity``. ``outstanding`` counts a generative
  request from admission to its *final decode step*, so probes see
  decode occupancy, not just queued prefills; the congestion tracker
  additionally splits per-level occupancy into queued vs decoding
  (``CongestionTracker.decoding``). The prompt pass is folded into the
  instance's next decode step.
- **Disaggregated** (a :class:`~repro.sim.disagg.DisaggConfig`): a
  prefill pool serves prompts as ordinary intervals placed by
  ``ArloRequestScheduler.dispatch`` (``PREFILL_DONE``), the KV cache
  moves to a decode instance (``KV_TRANSFER``), and the request joins
  that instance's decode loop. :class:`~repro.sim.disagg.DisaggPools`
  holds the role bookkeeping; see :mod:`repro.sim.disagg`.
- **Decode loop**: each instance owns a waiting queue and an active
  batch. Requests join at step boundaries only (while a step is in
  flight the batch is immutable). One ``DECODE_STEP`` event covers
  ``k`` steps (``chunk_steps`` slicing) of the whole batch; its
  duration is batch-size-dependent, derived from the runtime profile::

      step(k, b) = (pending_prefill + k * (overhead + per_seq * b))
                   * slow_factor

  where ``per_seq = service_table_ms[1] - overhead_ms`` (so a lone
  request's single step costs exactly ``service_table_ms[1]``) and
  ``pending_prefill`` is the summed prefill cost of members that
  joined since the last step (always zero on disaggregated pools).
  With ``continuous_batching=False`` the batch is gang-scheduled: new
  requests wait until the active batch fully drains.
- **Faults** reuse the discriminative taxonomy and code. A crash or
  blackout voids the instance's waiting queue and active batch; the
  in-flight step event is invalidated by bumping the per-instance
  ``token`` (completions are computed at step-fire time and never
  scheduled ahead, so no attempt tokens or in-flight FIFOs are
  needed). Lost requests re-enter through the same retry
  policy/budget; a re-dispatched request restarts from its prefill.

Observability: sampled spans record ``admit``/``probe``/``dispatch``/
``defer``/``retry`` as usual, plus a ``first_token`` event (TTFT and
the batch size that produced it) and ``decode_steps`` on ``complete``.

Determinism: the loop is single-threaded over the same deterministic
event queue; two runs of the same (trace, scheme, config) are
bit-identical. `run_simulation` delegates here when
``SimulationConfig.generative`` is set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop
from typing import TYPE_CHECKING

from repro.baselines.dispatchers import ArloDispatcher
from repro.baselines.schemes import Scheme
from repro.cluster.instance import InstanceStatus, RuntimeInstance
from repro.errors import (
    CapacityError,
    ConfigurationError,
    SchedulingError,
    SimulationError,
)
from repro.sim.disagg import DisaggConfig, DisaggPools
from repro.sim.events import (
    EventKind,
    acquire_decode_task,
    release_decode_task,
)
from repro.sim.kernel import SimKernel, SimulationResult
from repro.sim.metrics import StreamingLatencySummary
from repro.workload.generative import GenerativeTrace

if TYPE_CHECKING:
    from repro.sim.simulation import SimulationConfig


@dataclass(frozen=True)
class GenerativeConfig:
    """Decode-loop knobs, attached to ``SimulationConfig.generative``.

    ``max_batch`` caps an instance's active decode batch. ``chunk_steps``
    sets the step-slice granularity: one DECODE_STEP event advances the
    batch by up to ``chunk_steps`` token steps (clamped to the nearest
    member completion, so membership changes are never skipped over).
    ``continuous_batching=False`` gang-schedules instead: waiting
    requests join only when the active batch has fully drained.
    """

    max_batch: int = 8
    continuous_batching: bool = True
    chunk_steps: int = 1
    #: Disaggregated prefill/decode pools (None = one co-located pool).
    disagg: DisaggConfig | None = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if self.chunk_steps < 1:
            raise ConfigurationError("chunk_steps must be >= 1")
        if self.disagg is not None and not isinstance(self.disagg,
                                                      DisaggConfig):
            raise ConfigurationError(
                "GenerativeConfig.disagg must be a DisaggConfig, got "
                f"{type(self.disagg).__name__}"
            )


def build_generative_config(
    *,
    max_batch: int,
    continuous_batching: bool,
    chunk_steps: int,
    disagg: bool,
    transfer_ms_per_token: float,
    prefill_fraction: float,
) -> GenerativeConfig:
    """The decode config behind the flat experiment and CLI knobs.

    Raises :class:`ConfigurationError` for any invalid knob, so callers
    validate by building.
    """
    return GenerativeConfig(
        max_batch=max_batch,
        continuous_batching=continuous_batching,
        chunk_steps=chunk_steps,
        disagg=DisaggConfig(
            transfer_ms_per_token=transfer_ms_per_token,
            prefill_fraction=prefill_fraction,
        ) if disagg else None,
    )


class _DecodeState:
    """Per-instance decode loop state.

    Invariant: while ``stepping`` is True the active batch is immutable
    — admissions land in ``waiting`` and join at the next step boundary
    (``refill``). ``token`` invalidates the in-flight DECODE_STEP
    event on crash/blackout (the event's payload carries the token it
    was scheduled under).
    """

    __slots__ = ("instance", "waiting", "active", "token", "stepping",
                 "pending_prefill_ms", "step_k", "step_dur", "table",
                 "overhead_ms", "per_seq_ms")

    def __init__(self, instance: RuntimeInstance):
        self.instance = instance
        self.waiting: deque = deque()
        self.active: list = []
        self.token = 0
        self.stepping = False
        #: Prefill cost of members joined since the last step fired;
        #: folded into the next step's duration, then zeroed.
        self.pending_prefill_ms = 0.0
        self.step_k = 0
        self.step_dur = 0.0
        table = instance._service_table
        self.table = table
        overhead = instance.profile.overhead_ms
        self.overhead_ms = overhead
        # Per-token decode cost: calibrated so a batch of one advancing
        # one step costs exactly the profiled length-1 service time.
        self.per_seq_ms = table[1] - overhead

    def void(self) -> list:
        """Drop the batch and waiting queue; returns their tasks.

        Must run *before* ``crash_instance``/``suspend`` so the decode
        occupancy counters are reconciled while the tracker still
        counts the instance.
        """
        inst = self.instance
        if inst.tracker is not None and self.active:
            inst.tracker.on_decode_loss(inst, len(self.active))
        tasks = list(self.active)
        tasks.extend(self.waiting)
        self.token += 1  # voids the in-flight DECODE_STEP, if any
        self.active.clear()
        self.waiting.clear()
        self.stepping = False
        return tasks


def run_generative_simulation(
    scheme: Scheme,
    trace: GenerativeTrace,
    config: SimulationConfig,
) -> SimulationResult:
    """Serve a prefill+decode trace with continuous batching.

    ``config`` is a :class:`~repro.sim.simulation.SimulationConfig`
    whose ``generative`` field is set; `run_simulation` delegates here
    so callers never invoke this directly.
    """
    if not isinstance(trace, GenerativeTrace):
        raise ConfigurationError(
            "generative simulation needs a GenerativeTrace "
            "(attach decode lengths with attach_decode_lengths)"
        )
    if not len(trace):
        raise SimulationError("cannot simulate an empty trace")
    if not isinstance(scheme.dispatcher, ArloDispatcher):
        raise ConfigurationError(
            "the generative data plane requires Algorithm-1 placement "
            f"(Arlo-family scheme), got {scheme.name!r}"
        )
    gen: GenerativeConfig = config.generative
    max_batch = gen.max_batch
    continuous = gen.continuous_batching
    chunk_steps = gen.chunk_steps

    kernel = SimKernel(scheme, config, trace)
    queue = kernel.queue
    metrics = kernel.metrics
    tracer = kernel.tracer
    control = kernel.control
    deferred = kernel.deferred
    flush_deferred = kernel.flush_deferred
    reinject = kernel.reinject

    arrivals_ms = trace.arrival_ms.tolist()
    prefills = trace.length.tolist()
    decode_lens = trace.decode_len.tolist()
    n_requests = len(trace)
    next_arrival = 0
    outstanding = 0
    completed = 0
    decode_steps_total = 0
    step_events = 0
    batch_joins = 0

    scheduler = scheme.dispatcher.scheduler
    walk = scheduler._walk
    warmup_ms = config.warmup_ms
    max_events = config.max_events
    ttft = StreamingLatencySummary()
    tpot = StreamingLatencySummary()

    #: instance_id -> _DecodeState; created on first decode placement,
    #: popped on crash/blackout (resumed instances get a fresh state).
    states: dict[int, _DecodeState] = {}
    pools: DisaggPools | None = None
    if gen.disagg is not None:
        pools = kernel.pools = DisaggPools(gen.disagg, kernel, states,
                                           max_batch)
    colocated = pools is None
    mlq = kernel.pools.mlq

    DECODE_STEP = EventKind.DECODE_STEP

    def schedule_step(state: _DecodeState, now_ms: float) -> None:
        """Launch the next batch step (active is non-empty)."""
        nonlocal step_events
        inst = state.instance
        active = state.active
        b = len(active)
        k = chunk_steps
        if k > 1:
            # Clamp to the nearest member completion so batch
            # membership can change at the boundary it occurs on.
            remaining = min(t.decode_len - t.steps_done for t in active)
            if remaining < k:
                k = remaining
        dur = (
            state.pending_prefill_ms
            + k * (state.overhead_ms + state.per_seq_ms * b)
        ) * inst.slow_factor
        state.pending_prefill_ms = 0.0
        state.step_k = k
        state.step_dur = dur
        state.stepping = True
        step_events += 1
        queue.push(now_ms + dur, DECODE_STEP, (state, state.token))

    def refill(state: _DecodeState) -> None:
        """Join waiting requests into the active batch (step boundary)."""
        nonlocal batch_joins
        waiting = state.waiting
        if not waiting:
            return
        active = state.active
        if active and not continuous:
            return  # gang scheduling: wait for the batch to drain
        running = bool(active)
        inst = state.instance
        tracker = inst.tracker
        table = state.table
        while waiting and len(active) < max_batch:
            task = waiting.popleft()
            active.append(task)
            if colocated:
                # The prompt pass rides the next step; a disaggregated
                # prefill pool has already paid it.
                state.pending_prefill_ms += table[task.prefill_len]
            if tracker is not None:
                tracker.on_decode_start(inst)
            if running:
                batch_joins += 1

    def join(inst: RuntimeInstance, task, now_ms: float) -> None:
        """Queue a task for ``inst``'s decode loop."""
        state = states.get(inst.instance_id)
        if state is None:
            state = states[inst.instance_id] = _DecodeState(inst)
        state.waiting.append(task)
        if not state.stepping:
            refill(state)
            if state.active:
                schedule_step(state, now_ms)

    def admit(
        now_ms: float, request_id: int, arrival: float, prefill: int,
        attempt: int = 0,
    ) -> bool:
        nonlocal outstanding
        span = (
            tracer.begin(now_ms, request_id, arrival, prefill, attempt)
            if tracer is not None
            else None
        )
        probes = [] if span is not None else None
        try:
            if colocated:
                head, level, ideal, _peeked, fell_back = walk(prefill, probes)
            else:
                decision, _start, finish = pools.sched.dispatch(
                    now_ms, prefill, probes
                )
        except CapacityError:
            if span is not None:
                tracer.on_probes(span, now_ms, probes)
                tracer.on_defer(span, now_ms)
            return False
        if colocated:
            # Manual enqueue: no busy_until_ms service interval — the
            # decode loop owns timing. `outstanding` still counts the
            # request until its final decode step so congestion probes
            # see decode load.
            head.outstanding += 1
            head._epoch += 1
            tracker = head.tracker
            if tracker is not None:
                tracker.on_enqueue(head)
            mlq.refresh(head)
        else:
            head = decision.instance
            level = decision.level
            ideal = decision.ideal_level
            fell_back = decision.fell_back
        if span is not None:
            tracer.on_probes(span, now_ms, probes)
            tracer.on_dispatch(
                span, now_ms, level=level, ideal_level=ideal,
                instance=f"i{head.instance_id}", fallback=fell_back,
            )
        outstanding += 1
        task = acquire_decode_task(
            request_id, arrival, prefill, decode_lens[request_id], attempt
        )
        if colocated:
            join(head, task, now_ms)
        else:
            pools.start_prefill(head, finish, task)
        return True

    def void(victim: RuntimeInstance) -> list:
        """Detach a fault victim's live requests for re-dispatch."""
        nonlocal outstanding
        if colocated:
            state = states.pop(victim.instance_id, None)
            tasks = state.void() if state is not None else []
        else:
            tasks = pools.void(victim)
        outstanding -= len(tasks)
        lost = [(t.request_id, t.arrival_ms, t.prefill_len, t.attempt)
                for t in tasks]
        for task in tasks:
            release_decode_task(task)
        return lost

    kernel.admit = admit
    kernel.void = void
    kernel.seed()

    heap = queue._heap
    INF = float("inf")
    RESCHEDULE = EventKind.RESCHEDULE
    PREFILL_DONE = EventKind.PREFILL_DONE
    KV_TRANSFER = EventKind.KV_TRANSFER
    rebalance = pools.rebalance if pools is not None else None

    popped = queue._popped
    while True:
        if max_events and popped + next_arrival >= max_events:
            raise SimulationError(
                f"event cap {max_events} hit with work remaining"
            )
        heap_time = heap[0][0] if heap else INF

        if next_arrival < n_requests and arrivals_ms[next_arrival] < heap_time:
            now = arrivals_ms[next_arrival]
            request_id = next_arrival
            prefill = prefills[request_id]
            next_arrival = request_id + 1
            queue._now = now
            if not admit(now, request_id, now, prefill):
                deferred.append((request_id, now, prefill, 0))
                metrics.deferred_requests += 1
            continue
        if not heap:
            break

        entry = heappop(heap)
        now = entry[0]
        kind = entry[1]
        queue._now = now
        popped += 1

        if kind is DECODE_STEP:
            state, token = entry[3]
            if token != state.token:
                continue  # voided by a crash/blackout
            state.stepping = False
            inst = state.instance
            k = state.step_k
            dur = state.step_dur
            active = state.active
            decode_steps_total += k * len(active)
            batch_size = len(active)
            survivors: list = []
            for task in active:
                task.steps_done += k
                task.service_ms += dur
                if task.awaiting_first:
                    task.awaiting_first = False
                    first_ms = now - task.arrival_ms
                    if task.arrival_ms >= warmup_ms:
                        ttft.add(first_ms)
                    if tracer is not None:
                        span = tracer.active.get(task.request_id)
                        if span is not None:
                            tracer.on_first_token(span, now, first_ms,
                                                  batch_size)
                if task.steps_done < task.decode_len:
                    survivors.append(task)
                    continue
                # --- final decode step: the request completes ---
                out = inst.outstanding - 1
                if out < 0:
                    raise SchedulingError(
                        f"instance {inst.instance_id} completed with "
                        f"empty queue"
                    )
                inst.outstanding = out
                inst.served += 1
                inst._epoch += 1
                tracker = inst.tracker
                if tracker is not None:
                    tracker.on_complete(inst)
                    tracker.on_decode_end(inst)
                if colocated:  # decode-pool instances sit in no queue
                    mlq.refresh(inst)
                outstanding -= 1
                completed += 1
                if task.arrival_ms >= warmup_ms:
                    metrics.record(now - task.arrival_ms,
                                   inst.runtime_index)
                    # Time-per-output-token: total step time the request
                    # sat in, amortised over its tokens (steps are
                    # batch-shared, so this is the *experienced* TPOT).
                    tpot.add(task.service_ms / task.decode_len)
                if tracer is not None:
                    tracer.on_complete(task.request_id, now,
                                       task.service_ms,
                                       decode_steps=task.decode_len)
                if control._pending:
                    control.on_completion(now, inst)
                release_decode_task(task)
            state.active = survivors
            # Only a co-located step retries deferred prompts; the
            # prefill pool retries them when a prefill finishes.
            if deferred and colocated:
                flush_deferred(now)
            if inst.status is not InstanceStatus.RETIRED:
                refill(state)
                if state.active:
                    schedule_step(state, now)

        elif kind is PREFILL_DONE:
            inst, token, task = entry[3]
            if not pools.finish_prefill(inst, token, task):
                continue  # voided: the task was already reinjected
            target = pools.pick_decode_target()
            if target is None:
                # Decode pool momentarily empty (crashed away): the
                # request redoes prefill through the retry path.
                outstanding -= 1
                reinject(now, task.request_id, task.arrival_ms,
                         task.prefill_len, task.attempt)
                release_decode_task(task)
            else:
                pools.start_transfer(now, target, task)
            if deferred:
                flush_deferred(now)

        elif kind is KV_TRANSFER:
            target, token, task = entry[3]
            if pools.land_transfer(target, token, task):
                join(target, task, now)

        elif kind is RESCHEDULE:
            if kernel.work_remaining(next_arrival, outstanding):
                kernel.reschedule(now, next_arrival, rebalance)

        else:
            kernel.on_event(now, kind, entry[3])

    queue._popped = popped
    dispatch_stats = (scheduler if colocated else pools.sched).stats()
    extra_stats = {
        # Generative counters: plain ints so shard merges stay a sum.
        "decode_steps": decode_steps_total,
        "step_events": step_events,
        "batch_joins": batch_joins,
    }
    if pools is not None:
        dispatch_stats.update(pools.sizes())
        extra_stats.update(pools.stats())
    if ttft.count:
        dispatch_stats["ttft_mean_ms"] = ttft.mean_ms
        dispatch_stats["ttft_p50_ms"] = ttft.quantile(0.50)
        dispatch_stats["ttft_p98_ms"] = ttft.quantile(0.98)
    if tpot.count:
        dispatch_stats["tpot_mean_ms"] = tpot.mean_ms
        dispatch_stats["tpot_p50_ms"] = tpot.quantile(0.50)
        dispatch_stats["tpot_p98_ms"] = tpot.quantile(0.98)
    return kernel.finish(
        served=completed,
        arrivals=next_arrival,
        dispatch_stats=dispatch_stats,
        extra_stats=extra_stats,
    )
