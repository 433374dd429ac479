"""Periodic Runtime Scheduler: demand → allocation → replacement plan."""

import numpy as np
import pytest

from repro.cluster.state import ClusterState
from repro.core.allocation import AllocationProblem, AllocationResult
from repro.core.bins import LengthBins
from repro.core.demand import DemandEstimator
from repro.core.runtime_scheduler import RuntimeScheduler, RuntimeSchedulerConfig
from repro.errors import ConfigurationError, InfeasibleError
from repro.perf.cache import AllocationCache, profile_fingerprint
from repro.runtimes.models import bert_base
from repro.runtimes.registry import build_polymorph_set
from repro.units import seconds

REGISTRY = build_polymorph_set(bert_base())


def make_scheduler(**cfg):
    bins = LengthBins.from_registry(REGISTRY)
    estimator = DemandEstimator(
        bins=bins, slo_ms=bert_base().slo_ms, window_ms=seconds(120)
    )
    return RuntimeScheduler(
        registry=REGISTRY,
        estimator=estimator,
        config=RuntimeSchedulerConfig(**cfg) if cfg else RuntimeSchedulerConfig(),
    )


def feed(scheduler, lengths, rate_per_s=500.0, duration_s=30.0):
    times = np.linspace(0, seconds(duration_s), int(rate_per_s * duration_s))
    lengths = np.resize(np.asarray(lengths), times.size)
    scheduler.estimator.observe_batch(times, lengths)


def test_decide_tracks_short_demand():
    scheduler = make_scheduler()
    feed(scheduler, [30, 50, 60])  # everything in bin 0
    result = scheduler.decide(seconds(30), num_gpus=10)
    assert result.allocation.sum() == 10
    assert result.allocation[0] >= 5  # most GPUs go to the short runtime
    assert result.allocation[-1] >= 1  # Eq. 7


def test_decide_tracks_long_demand():
    scheduler = make_scheduler()
    feed(scheduler, [500, 480, 460])
    result = scheduler.decide(seconds(30), num_gpus=10)
    assert result.allocation[-1] >= 5


def test_overload_falls_back_to_relaxed_bounds():
    scheduler = make_scheduler()
    feed(scheduler, [500], rate_per_s=20_000.0, duration_s=10.0)
    result = scheduler.decide(seconds(10), num_gpus=2)  # hopeless demand
    assert result.relaxed
    assert result.allocation.sum() == 2


def test_approx_cache_hit_under_overload_solves_relaxed_not_held():
    # Ladder mode checks an approximate cache hit with is_feasible
    # against the live problem. Under overload the strict Eq. 3 bounds
    # exceed the fleet: the check must reject the cached allocation and
    # fall through to the relaxed solve, not raise out of decide() and
    # turn a solvable period into a fallback hold.
    scheduler = make_scheduler(solver_ladder=True, enable_cache=True,
                               cache_tolerance=0.05, solve_deadline_ms=2_000.0)
    state = ClusterState.bootstrap(REGISTRY, [0, 0, 0, 0, 0, 0, 0, 2])
    feed(scheduler, [500], rate_per_s=20_000.0, duration_s=10.0)
    now = seconds(10)
    demand = scheduler.estimator.demand(now)
    problem = AllocationProblem.from_profiles(2, demand, list(REGISTRY))
    with pytest.raises(InfeasibleError):
        problem.lower_bounds()
    fingerprint = profile_fingerprint(
        problem.capacity, problem.service_ms, problem.overhead_ms
    )
    near = demand * 1.01  # within the 5% tolerance, a different key
    cached = AllocationResult(
        allocation=np.array([0, 0, 0, 0, 0, 0, 1, 1]), objective=1.0,
        solver="dp", solve_time_s=0.0, relaxed=False,
    )
    key = AllocationCache.key_for(near, 2, fingerprint, "anytime", False)
    scheduler.cache.store(now, key, 2, fingerprint, near, cached)
    result, _plan = scheduler.step(now, state)
    assert result.solver != "fallback-hold"
    assert scheduler.solver_fallbacks == 0
    assert result.relaxed
    assert not result.stats.get("approx_hit")
    assert result.allocation.sum() == 2


def test_step_produces_consistent_plan():
    scheduler = make_scheduler()
    state = ClusterState.bootstrap(REGISTRY, [7, 0, 0, 0, 0, 0, 0, 3])
    feed(scheduler, [300, 310, 280])  # demand concentrated in bin 4
    result, plan = scheduler.step(seconds(30), state)
    assert result.allocation.sum() == 10
    # Replaying the plan reaches the decided allocation.
    current = state.allocation()
    for s in plan.steps:
        current[s.from_runtime] -= 1
        current[s.to_runtime] += 1
    assert np.array_equal(current, result.allocation)


def test_step_requires_active_instances():
    scheduler = make_scheduler()
    state = ClusterState.bootstrap(REGISTRY, [1, 0, 0, 0, 0, 0, 0, 1])
    for inst in list(state.instances.values()):
        inst.begin_drain()
    with pytest.raises(ConfigurationError):
        scheduler.step(0.0, state)


def test_step_holds_while_crashed_gpus_await_recovery():
    # Every instance crashed but its GPU stays provisioned (a recovery
    # is pending): the deployment is held instead of failing the run.
    scheduler = make_scheduler()
    feed(scheduler, [100])
    state = ClusterState.bootstrap(REGISTRY, [1, 0, 0, 0, 0, 0, 0, 1])
    for inst in list(state.instances.values()):
        state.crash_instance(inst)
    result, plan = scheduler.step(seconds(30), state)
    assert result.solver == "hold"
    assert plan.is_empty
    # Once the GPUs are released nothing can come back.
    for gpu in state.free_gpus():
        state.release_gpu(gpu.gpu_id, seconds(30))
    with pytest.raises(ConfigurationError):
        scheduler.step(seconds(30), state)


def test_zero_demand_holds_current_allocation():
    scheduler = make_scheduler()
    state = ClusterState.bootstrap(REGISTRY, [3, 2, 1, 1, 1, 0, 1, 1])
    result, plan = scheduler.step(seconds(30), state)
    assert result.solver == "hold"
    assert np.array_equal(result.allocation, state.allocation())
    assert plan.is_empty


def test_history_and_timeline():
    scheduler = make_scheduler()
    feed(scheduler, [100])
    scheduler.decide(seconds(30), num_gpus=4)
    scheduler.decide(seconds(150), num_gpus=4)
    times, allocs = scheduler.allocation_timeline()
    assert times.tolist() == [seconds(30), seconds(150)]
    assert allocs.shape == (2, len(REGISTRY))
    empty = make_scheduler()
    t, a = empty.allocation_timeline()
    assert t.size == 0 and a.shape == (0, len(REGISTRY))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        RuntimeSchedulerConfig(period_ms=0)
    with pytest.raises(ConfigurationError):
        RuntimeSchedulerConfig(replacement_batch_size=0)


def test_solver_failure_holds_previous_allocation():
    scheduler = make_scheduler()
    state = ClusterState.bootstrap(REGISTRY, [3, 2, 1, 1, 1, 0, 1, 1])
    feed(scheduler, [300, 310, 280])
    scheduler.inject_solver_failures()
    result, plan = scheduler.step(seconds(30), state)
    # Graceful degradation: same allocation, empty plan, incident logged.
    assert result.solver == "fallback-hold"
    assert np.array_equal(result.allocation, state.allocation())
    assert plan.is_empty
    assert scheduler.solver_fallbacks == 1
    assert len(scheduler.incidents) == 1
    incident = scheduler.incidents[0]
    assert incident.time_ms == seconds(30)
    assert "SolverError" in incident.error
    assert incident.held_allocation == tuple(state.allocation())
    # The next period solves normally again.
    result2, _plan2 = scheduler.step(seconds(150), state)
    assert result2.solver != "fallback-hold"
    assert scheduler.solver_fallbacks == 1


def test_inject_solver_failures_validation():
    scheduler = make_scheduler()
    with pytest.raises(ConfigurationError):
        scheduler.inject_solver_failures(0)
