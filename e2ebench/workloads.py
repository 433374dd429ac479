"""The benchmark's four workloads and the correctness checks on their runs.

Each workload is one single-threaded, in-process simulation family. A run
simulates ``replicas`` independent traces whose seeds derive from the run's
``--seed``, so its pooled figures do not hinge on the bursts of one trace.
Arrivals follow the trace's schedule in simulated time (open loop); the
simulator only ever receives the generated trace.

Why each workload exists, its operating point and the layer -> metric map
are recorded in ``WORKLOADS.md`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.experiments.runner import ExperimentSpec
from repro.resilience.manager import ResilienceConfig
from repro.sim.faults import BlackoutEvent, FaultPlan
from repro.sim.simulation import SimulationConfig, SimulationResult
from repro.workload.trace import Trace

MODEL = "bert-large"
SCHEME = "arlo"
#: The chaos plan is pinned: the same faults at the same fractions of the
#: horizon for every trace, so only the trace varies with the seed.
CHAOS_PLAN_SEED = 7
#: Fixed control cadence. The legacy bench helpers derive the period from
#: the trace length (duration / 8), which ties control work to the run's
#: size; every workload here pins it instead.
SCHEDULER_PERIOD_S = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    num_gpus: int
    rate_per_s: float
    #: Simulated seconds per replica trace.
    duration_s: float
    replicas: int
    pattern: str = "stable"
    generative: bool = False
    disagg: bool = False
    chaos: bool = False

    def spec(self, seed: int) -> ExperimentSpec:
        return ExperimentSpec(
            name=self.name,
            model=MODEL,
            num_gpus=self.num_gpus,
            rate_per_s=self.rate_per_s,
            duration_s=self.duration_s,
            pattern=self.pattern,
            schemes=(SCHEME,),
            seed=seed,
            scheduler_period_s=SCHEDULER_PERIOD_S,
            generative=self.generative,
            disagg=self.disagg,
        )

    def sim_config(self, spec: ExperimentSpec) -> SimulationConfig:
        config = spec.sim_config()
        if self.chaos:
            config = replace(
                config,
                failures=chaos_plan(self.duration_s * 1000.0, self.num_gpus),
                resilience=ResilienceConfig(),
            )
        return config

    def replica_seeds(self, seed: int) -> list[int]:
        """Trace seeds of this run's replicas, derived from ``seed``."""
        state = np.random.SeedSequence(seed).generate_state(self.replicas)
        return [int(s) for s in state]


def chaos_plan(horizon_ms: float, num_gpus: int) -> FaultPlan:
    """Crashes and solver faults from ``FaultPlan.chaos`` plus two
    fleet-wide one-second blackouts.

    Single-instance faults pick their victim by load at fire time, so
    whether they empty a runtime level (and strand requests in the
    deferred list) depends on the trace. A blackout of every instance
    defers every arrival in its window whatever the trace, which keeps the
    deferral and retry path exercised on every seed. Crash recovery is
    short, and there are no slowdowns, for the same reason: an emptied
    level or a slowed instance's tripped breaker made a replica's cost
    swing several-fold with the trace rather than with the code.

    The blackouts must not span a scheduler period end: a period that
    finds no active instance stops the run (see WORKLOADS.md).
    """
    plan = FaultPlan.chaos(
        horizon_ms,
        crashes=4,
        slowdowns=0,
        blackouts=0,
        solver_faults=2,
        seed=CHAOS_PLAN_SEED,
        recovery_ms=500.0,
    )
    blackouts = [
        BlackoutEvent(time_ms=horizon_ms * at, victim_rank=0,
                      duration_ms=1000.0)
        for at in (1 / 3, 2 / 3)
        for _ in range(num_gpus)
    ]
    return FaultPlan(events=plan.events + blackouts)


_DISC = dict(num_gpus=32, rate_per_s=2000.0, duration_s=40.0, replicas=12)
_GEN = dict(num_gpus=64, rate_per_s=60.0, duration_s=120.0, replicas=6,
            generative=True)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("disc_bursty", pattern="bursty", **_DISC),
        # Poisson arrivals: on the bursty trace the load at blackout time,
        # and with it the replica's cost, varied several-fold by seed.
        Workload("disc_chaos", pattern="stable", chaos=True, **_DISC),
        Workload("gen_colocated", **_GEN),
        Workload("gen_disagg", disagg=True, **_GEN),
    )
}


def check(workload: Workload, trace: Trace,
          result: SimulationResult) -> list[str]:
    """Conservation checks on one simulation; returns the failures."""
    failures = []
    sent = len(trace)
    latencies = result.latencies()
    if latencies.size != sent:
        failures.append(f"{latencies.size} of {sent} requests completed")
    if latencies.size and not (
        np.all(np.isfinite(latencies)) and latencies.min() > 0.0
    ):
        failures.append("a latency is not a positive finite number")
    stats = result.control_stats
    if workload.generative:
        if stats["decode_steps"] != trace.total_decode_steps:
            failures.append(
                f"decode_steps {stats['decode_steps']} != trace total "
                f"{trace.total_decode_steps}"
            )
    if workload.disagg:
        if not stats["kv_transfers"] == stats["prefill_completions"] == sent:
            failures.append(
                f"kv_transfers {stats['kv_transfers']}, prefill_completions "
                f"{stats['prefill_completions']}, requests {sent} differ"
            )
    if workload.chaos:
        if stats["deferred"] < 1:
            failures.append("the pinned fault plan deferred no request")
    elif stats["failures"] or stats["blackouts"] or stats["slowdowns"]:
        failures.append("a fault fired on a fault-free workload")
    return failures
