"""Disaggregated prefill/decode instance pools with adaptive rebalancing.

The co-located generative loop folds a request's prompt pass into its
decode instance's next step. Production LLM serving increasingly
*disaggregates* instead (Arrow, arxiv 2505.11916): a **prefill pool**
runs prompt passes as ordinary batch-1 service intervals placed by
Algorithm 1, a **decode pool** runs the continuous-batching step loop,
and the KV cache produced by prefill is *transferred* between the pools
at a configurable per-token cost. The two pools decouple the TTFT tail
(prefill queueing) from token throughput (decode batching) — at the
price of the handoff and of having to size the pools.

This is a pool topology over the generative decode loop
(:func:`repro.sim.generative.run_generative_simulation`), not a second
simulator: :class:`DisaggPools` holds the role bookkeeping the loop
and the shared fault plane (:mod:`repro.sim.kernel`) call into.

- **Prefill**: arrivals walk Algorithm 1 (`ArloRequestScheduler`) over
  a prefill-pool-only multi-level queue; the chosen instance serves the
  prompt as a real ``busy_until``-chained interval, completing with a
  ``PREFILL_DONE`` event.
- **Handoff**: prefill completion starts a ``KV_TRANSFER`` event to
  the least-loaded live decode instance, lasting
  ``transfer_ms_per_token × prefill_len``. The request counts against
  the decode instance's ``outstanding`` from transfer start, so target
  choice sees in-flight handoffs.
- **Decode**: the transferred request joins the target's waiting queue
  and decodes through the same continuous-batching step machinery as
  the co-located loop (batch-size-dependent step latency;
  ``chunk_steps``; gang mode) — minus the prefill fold-in, which the
  prefill pool already paid.
- **Rebalancing**: each Runtime Scheduler period solves the coupled
  split (:meth:`RuntimeScheduler.decide_pool_split` — greedy scan over
  the prompt-demand estimate + decode-occupancy pressure, optionally
  anytime-refined) and *flips* up to ``max_flips_per_period`` idle
  instances between roles toward the target, preserving top-runtime
  coverage in the prefill pool. Splits and flips are recorded in the
  control timeline under the ``pool`` category.
- **Faults** are role-aware: crashing or blacking out a prefill
  instance voids its queued prompts; a decode victim voids its batch,
  waiting queue *and* in-flight KV transfers (``kv_token`` bump).
  Either way the lost requests re-enter through the budgeted retry
  path and redo prefill from scratch — conservation still holds
  (``decode_steps >= trace.total_decode_steps``, equality without
  faults). A recovered GPU rejoins with its victim's role.

Determinism matches the co-located loop: no wall-clock reads in any
decision (the split scan is greedy; anytime refinement cannot change
the split), so two runs of the same (trace, scheme, config) produce
byte-identical stats.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.instance import InstanceStatus, RuntimeInstance
from repro.core.mlq import MultiLevelQueue
from repro.core.pool_split import PoolSplitConfig
from repro.core.request_scheduler import ArloRequestScheduler
from repro.errors import ConfigurationError, SchedulingError, SolverError
from repro.sim.events import EventKind
from repro.sim.kernel import Colocated

if TYPE_CHECKING:
    from repro.sim.kernel import SimKernel

PREFILL = "prefill"
DECODE = "decode"


@dataclass(frozen=True)
class DisaggConfig:
    """Disaggregated-pool knobs, attached to ``GenerativeConfig.disagg``.

    ``transfer_ms_per_token`` prices the KV handoff (cache size grows
    with the prompt, so so does the transfer). ``prefill_fraction``
    sets the initial role partition; the rebalancer moves it from
    there. ``decode_weight_ms`` converts decode occupancy-per-slot
    into the split objective's ms·requests units (see
    :mod:`repro.core.pool_split`).
    """

    transfer_ms_per_token: float = 0.02
    prefill_fraction: float = 0.5
    rebalance: bool = True
    max_flips_per_period: int = 1
    min_prefill: int = 1
    min_decode: int = 1
    decode_weight_ms: float = 2000.0

    def __post_init__(self) -> None:
        if self.transfer_ms_per_token < 0:
            raise ConfigurationError(
                "transfer_ms_per_token cannot be negative"
            )
        if not 0.0 < self.prefill_fraction < 1.0:
            raise ConfigurationError(
                "prefill_fraction must be strictly between 0 and 1"
            )
        if self.max_flips_per_period < 0:
            raise ConfigurationError(
                "max_flips_per_period cannot be negative"
            )
        if self.min_prefill < 1 or self.min_decode < 1:
            raise ConfigurationError(
                "both pools need at least one instance"
            )
        if self.decode_weight_ms < 0:
            raise ConfigurationError("decode_weight_ms cannot be negative")

    def split_config(self) -> PoolSplitConfig:
        return PoolSplitConfig(
            min_prefill=self.min_prefill,
            min_decode=self.min_decode,
            decode_weight_ms=self.decode_weight_ms,
        )




class DisaggPools(Colocated):
    """Role bookkeeping of the two pools, driven by the generative loop.

    ``mlq`` is the prefill pool's multi-level queue (the one placement
    walks and fault victims leave); ``sched`` places prompts on it.
    ``states`` is the loop's instance_id -> decode state map, shared so
    a voided or flipped decode instance drops its state.
    """

    def __init__(self, config: DisaggConfig, kernel: SimKernel,
                 states: dict, max_batch: int):
        scheme = kernel.scheme
        registry = scheme.registry
        self.config = config
        self.kernel = kernel
        self.states = states
        self.max_batch = max_batch
        self.top_level = len(registry) - 1
        # Initial role partition. Shortest runtimes decode (their step
        # tables are cheapest per token); the tail of the (runtime_index,
        # instance_id) ordering stays prefill, which always keeps the
        # Eq. 7 top-runtime instance on the prefill side so every prompt
        # length remains placeable.
        ordered = sorted(
            scheme.cluster.active_instances(),
            key=lambda i: (i.runtime_index, i.instance_id),
        )
        n_instances = len(ordered)
        if n_instances < config.min_prefill + config.min_decode:
            raise ConfigurationError(
                f"{n_instances} instances cannot satisfy min_prefill="
                f"{config.min_prefill} + min_decode={config.min_decode}"
            )
        n_decode = int(round((1.0 - config.prefill_fraction) * n_instances))
        n_decode = max(config.min_decode,
                       min(n_decode, n_instances - config.min_prefill))
        self.decode_pool: dict[int, RuntimeInstance] = {
            inst.instance_id: inst for inst in ordered[:n_decode]
        }
        self.prefill_pool: dict[int, RuntimeInstance] = {
            inst.instance_id: inst for inst in ordered[n_decode:]
        }
        self.roles: dict[int, str] = {}
        for iid in self.prefill_pool:
            self.roles[iid] = PREFILL
        for iid in self.decode_pool:
            self.roles[iid] = DECODE
        super().__init__(MultiLevelQueue(len(registry)))
        for inst in self.prefill_pool.values():
            self.mlq.add(inst)
        self.sched = ArloRequestScheduler(
            registry=registry,
            mlq=self.mlq,
            config=scheme.dispatcher.scheduler.config,
        )
        #: instance_id -> FIFO of DecodeTasks in prefill (service order).
        self.prefill_inflight: dict[int, deque] = {}
        #: instance_id -> tasks whose KV transfer is in flight to it.
        self.kv_inflight: dict[int, list] = {}
        #: Per-instance tokens voiding in-flight PREFILL_DONE/KV_TRANSFER.
        self.prefill_token: dict[int, int] = {}
        self.kv_token: dict[int, int] = {}
        #: gpu_id -> role a recovered instance should rejoin with.
        self.pending_role: dict[int, str] = {}
        self.prefill_completions = 0
        self.kv_transfers = 0
        self.kv_transfers_voided = 0
        self.pool_flips = 0
        if kernel.timeline is not None:
            kernel.timeline.record(
                0.0, "pool", "partition",
                prefill=len(self.prefill_pool), decode=len(self.decode_pool),
            )

    # -- prefill and handoff ------------------------------------------------
    def start_prefill(self, inst: RuntimeInstance, finish_ms: float,
                      task) -> None:
        """Book a placed prompt's ``PREFILL_DONE``."""
        iid = inst.instance_id
        self.prefill_inflight.setdefault(iid, deque()).append(task)
        self.kernel.queue.push(
            finish_ms, EventKind.PREFILL_DONE,
            (inst, self.prefill_token.get(iid, 0), task),
        )

    def finish_prefill(self, inst: RuntimeInstance, token: int,
                       task) -> bool:
        """Retire a prompt pass; False when a fault voided it."""
        iid = inst.instance_id
        if token != self.prefill_token.get(iid, 0):
            return False
        head_task = self.prefill_inflight[iid].popleft()
        if head_task is not task:  # pragma: no cover - FIFO invariant
            raise SchedulingError(
                f"prefill completion order broke on instance {iid}"
            )
        inst.complete()
        self.mlq.refresh(inst)
        self.prefill_completions += 1
        return True

    def pick_decode_target(self) -> RuntimeInstance | None:
        """Least-loaded live decode instance (ties: smallest id)."""
        best = None
        for inst in self.decode_pool.values():
            if inst.status is not InstanceStatus.ACTIVE:
                continue
            if best is None or (inst.outstanding, inst.instance_id) < (
                best.outstanding, best.instance_id
            ):
                best = inst
        return best

    def start_transfer(self, now_ms: float, target: RuntimeInstance,
                       task) -> None:
        """Launch the KV handoff of a finished prefill to ``target``."""
        tid = target.instance_id
        target.outstanding += 1
        target._epoch += 1
        if target.tracker is not None:
            target.tracker.on_enqueue(target)
        self.kv_inflight.setdefault(tid, []).append(task)
        self.kv_transfers += 1
        self.kernel.queue.push(
            now_ms + self.config.transfer_ms_per_token * task.prefill_len,
            EventKind.KV_TRANSFER,
            (target, self.kv_token.get(tid, 0), task),
        )

    def land_transfer(self, target: RuntimeInstance, token: int,
                      task) -> bool:
        """A handoff arrived; False when a fault voided it."""
        tid = target.instance_id
        if token != self.kv_token.get(tid, 0):
            return False
        self.kv_inflight[tid].remove(task)
        return True

    # -- fault hooks ----------------------------------------------------------
    def void(self, victim: RuntimeInstance) -> list:
        """Void a victim's live work (role-aware); returns its tasks.

        Prefill victims lose their queued prompts; decode victims lose
        waiting + active batches *and* in-flight KV transfers (token
        bumps void the scheduled events).
        """
        vid = victim.instance_id
        if self.roles.get(vid) == PREFILL:
            self.prefill_token[vid] = self.prefill_token.get(vid, 0) + 1
            fifo = self.prefill_inflight.pop(vid, None)
            return list(fifo) if fifo else []
        tasks: list = []
        state = self.states.pop(vid, None)
        if state is not None:
            tasks.extend(state.void())
        self.kv_token[vid] = self.kv_token.get(vid, 0) + 1
        transfers = self.kv_inflight.pop(vid, None)
        if transfers:
            self.kv_transfers_voided += len(transfers)
            tasks.extend(transfers)
        return tasks

    def role_detail(self, instance_id: int) -> dict:
        return {"role": self.roles.get(instance_id, PREFILL)}

    def on_recovered(self, instance: RuntimeInstance, gpu_id: int) -> dict:
        role = self.pending_role.pop(gpu_id, PREFILL)
        iid = instance.instance_id
        self.roles[iid] = role
        if role == PREFILL:
            self.prefill_pool[iid] = instance
            self.mlq.add(instance)
        else:
            self.decode_pool[iid] = instance
        return {"role": role}

    def on_resumed(self, instance: RuntimeInstance) -> None:
        if self.roles.get(instance.instance_id) == PREFILL:
            super().on_resumed(instance)

    def on_crashed(self, instance_id: int, gpu_id: int,
                   recovering: bool) -> None:
        role = self.roles.pop(instance_id, PREFILL)
        self.prefill_pool.pop(instance_id, None)
        self.decode_pool.pop(instance_id, None)
        if recovering:
            self.pending_role[gpu_id] = role

    # -- rebalancing ----------------------------------------------------------
    def rebalance(self, now_ms: float) -> None:
        """One period of the coupled split + adaptive role migration."""
        config = self.config
        kernel = self.kernel
        runtime_scheduler = kernel.runtime_scheduler
        timeline = kernel.timeline
        prefill_pool = self.prefill_pool
        decode_pool = self.decode_pool
        total = len(prefill_pool) + len(decode_pool)
        if total < config.min_prefill + config.min_decode:
            return
        decode_occ = sum(
            inst.outstanding for inst in decode_pool.values()
        )
        try:
            outcome = runtime_scheduler.decide_pool_split(
                now_ms, total,
                decode_occupancy=float(decode_occ),
                decode_slots_per_gpu=float(self.max_batch),
                split_config=config.split_config(),
            )
        except SolverError:
            runtime_scheduler.solver_fallbacks += 1
            if timeline is not None:
                timeline.record(now_ms, "pool", "hold",
                                reason="solver-failure")
            return
        if outcome is None:
            return  # no demand observed yet: hold the current roles
        split, provenance = outcome
        if timeline is not None:
            timeline.record(
                now_ms, "pool", "split",
                prefill_gpus=split.prefill_gpus,
                decode_gpus=split.decode_gpus,
                current_prefill=len(prefill_pool),
                current_decode=len(decode_pool),
                decode_occupancy=decode_occ,
                objective=split.prefill_objective,
                provenance=provenance,
            )
        if not config.rebalance:
            return
        delta = split.decode_gpus - len(decode_pool)
        budget = config.max_flips_per_period
        if delta > 0:
            # Prefill → decode: flip idle prompt servers, shortest
            # runtimes first, never the last top-runtime cover.
            top_level = self.top_level
            top_cover = sum(
                1 for inst in prefill_pool.values()
                if inst.runtime_index == top_level
                and inst.status is InstanceStatus.ACTIVE
            )
            candidates = sorted(
                (
                    inst for inst in prefill_pool.values()
                    if inst.status is InstanceStatus.ACTIVE
                    and inst.outstanding == 0
                ),
                key=lambda i: (i.runtime_index, i.instance_id),
            )
            for inst in candidates:
                if delta <= 0 or budget <= 0:
                    break
                if len(prefill_pool) <= config.min_prefill:
                    break
                if inst.runtime_index == top_level and top_cover <= 1:
                    continue
                if inst.runtime_index == top_level:
                    top_cover -= 1
                if self.mlq.contains(inst):
                    self.mlq.remove(inst)
                self._flip(now_ms, inst, prefill_pool, decode_pool, DECODE)
                delta -= 1
                budget -= 1
        elif delta < 0:
            # Decode → prefill: idle decoders only (no batch, no
            # waiting queue, no in-flight transfer), longest first.
            candidates = sorted(
                (
                    inst for inst in decode_pool.values()
                    if inst.status is InstanceStatus.ACTIVE
                    and inst.outstanding == 0
                ),
                key=lambda i: (-i.runtime_index, i.instance_id),
            )
            for inst in candidates:
                if delta >= 0 or budget <= 0:
                    break
                if len(decode_pool) <= config.min_decode:
                    break
                self.states.pop(inst.instance_id, None)
                self._flip(now_ms, inst, decode_pool, prefill_pool, PREFILL)
                self.mlq.add(inst)
                delta += 1
                budget -= 1
            kernel.flush_deferred(now_ms)

    def _flip(self, now_ms: float, inst: RuntimeInstance, source: dict,
              target: dict, role: str) -> None:
        vid = inst.instance_id
        del source[vid]
        target[vid] = inst
        self.roles[vid] = role
        self.pool_flips += 1
        if self.kernel.timeline is not None:
            self.kernel.timeline.record(
                now_ms, "pool", "flip", instance=vid,
                from_role=DECODE if role == PREFILL else PREFILL,
                to_role=role,
            )

    # -- stats ----------------------------------------------------------------
    def sizes(self) -> dict[str, int]:
        return {
            "prefill_pool_size": len(self.prefill_pool),
            "decode_pool_size": len(self.decode_pool),
        }

    def stats(self) -> dict[str, int]:
        return {
            "prefill_completions": self.prefill_completions,
            "kv_transfers": self.kv_transfers,
            "kv_transfers_voided": self.kv_transfers_voided,
            "pool_flips": self.pool_flips,
        }
