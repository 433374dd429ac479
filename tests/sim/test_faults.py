"""Failure injection: crashes, work re-dispatch, recovery."""

import numpy as np
import pytest

from repro.baselines.schemes import build_scheme
from repro.core.runtime_scheduler import RuntimeSchedulerConfig
from repro.errors import ConfigurationError
from repro.sim.faults import BlackoutEvent, FailureEvent, FailurePlan, FaultPlan
from repro.sim.simulation import SimulationConfig, run_simulation
from repro.units import seconds
from repro.workload.trace import Trace
from repro.workload.twitter import generate_twitter_trace


def bursty_trace(rate=300, duration_s=20, seed=13):
    return generate_twitter_trace(
        rate_per_s=rate, duration_ms=seconds(duration_s), seed=seed
    )


def test_failure_event_validation():
    with pytest.raises(ConfigurationError):
        FailureEvent(time_ms=-1.0)
    with pytest.raises(ConfigurationError):
        FailureEvent(time_ms=0.0, victim_rank=-1)
    with pytest.raises(ConfigurationError):
        FailureEvent(time_ms=0.0, recovery_ms=-1.0)
    with pytest.raises(ConfigurationError):
        FailurePlan.random(count=-1, horizon_ms=100.0)


def test_instant_recovery_is_legal():
    # recovery_ms=0 means "recovers in the same timestamp" (e.g. a
    # supervised process restart) and must be accepted — only negative
    # recovery is nonsense. Pin the contract end to end: the fleet is
    # whole again and every request completes.
    event = FailureEvent(time_ms=seconds(3), recovery_ms=0.0)
    assert event.recovery_ms == 0.0
    trace = bursty_trace(rate=100, duration_s=8)
    scheme = build_scheme("st", "bert-base", 3)
    result = run_simulation(
        scheme, trace, SimulationConfig(failures=FailurePlan(events=[event]))
    )
    assert result.stats.count == len(trace)
    assert scheme.cluster.num_gpus == 3
    assert scheme.cluster.num_active_instances == 3


def test_random_plan_within_horizon():
    plan = FailurePlan.random(count=5, horizon_ms=seconds(100), seed=3)
    assert len(plan) == 5
    times = [e.time_ms for e in plan.sorted_events()]
    assert times == sorted(times)
    assert all(seconds(10) <= t <= seconds(90) for t in times)


def test_all_requests_still_complete_under_failures():
    trace = bursty_trace()
    plan = FailurePlan(events=[
        FailureEvent(time_ms=seconds(5)),
        FailureEvent(time_ms=seconds(10)),
    ])
    scheme = build_scheme("arlo", "bert-base", 5)
    result = run_simulation(scheme, trace, SimulationConfig(failures=plan))
    assert result.stats.count == len(trace)
    assert result.control_stats["failures"] == 2
    assert result.control_stats["requests_lost"] >= 0
    assert scheme.cluster.total_outstanding() == 0


def test_recovery_restores_capacity():
    trace = bursty_trace(rate=200, duration_s=15)
    plan = FailurePlan(events=[FailureEvent(time_ms=seconds(4),
                                            recovery_ms=seconds(2))])
    scheme = build_scheme("st", "bert-base", 3)
    result = run_simulation(scheme, trace, SimulationConfig(failures=plan))
    assert result.stats.count == len(trace)
    # The GPU came back: full fleet at the end, no GPU released.
    assert scheme.cluster.num_gpus == 3
    assert scheme.cluster.num_active_instances == 3


def test_permanent_failure_releases_gpu():
    trace = bursty_trace(rate=100, duration_s=10)
    plan = FailurePlan(events=[FailureEvent(time_ms=seconds(3),
                                            recovery_ms=None)])
    scheme = build_scheme("st", "bert-base", 3)
    result = run_simulation(scheme, trace, SimulationConfig(failures=plan))
    assert result.stats.count == len(trace)
    assert scheme.cluster.num_gpus == 2
    assert result.control_stats["failures"] == 1


def test_failures_hurt_tail_latency():
    trace = bursty_trace(rate=400, duration_s=20)
    scheme_ok = build_scheme("arlo", "bert-base", 4)
    baseline = run_simulation(scheme_ok, trace)
    plan = FailurePlan.random(count=4, horizon_ms=seconds(20), seed=5,
                              recovery_ms=seconds(5))
    scheme_bad = build_scheme("arlo", "bert-base", 4)
    faulty = run_simulation(scheme_bad, trace, SimulationConfig(failures=plan))
    assert faulty.control_stats["requests_lost"] > 0
    assert faulty.p98_ms > baseline.p98_ms


def test_lost_requests_keep_original_arrival_time():
    # One instance, one failure right after a burst: re-dispatched
    # requests must be charged from their original arrival.
    trace = Trace(np.array([0.0, 1.0, 2.0]), np.array([100, 100, 100]))
    plan = FailurePlan(events=[FailureEvent(time_ms=3.0,
                                            recovery_ms=1_000.0)])
    scheme = build_scheme("st", "bert-base", 2)
    result = run_simulation(scheme, trace, SimulationConfig(failures=plan))
    # Victim is the busier instance; its requests finish only after the
    # survivor or the recovered instance serves them -> latency includes
    # the failure-induced delay measured from the original arrival.
    assert result.stats.count == 3
    assert result.stats.max_ms > 6.0


def test_failure_with_crashless_cluster_is_noop():
    trace = bursty_trace(rate=50, duration_s=5)
    # Failure scheduled long after the trace drains, when no active
    # instance remains to kill... instances persist, so it still fires.
    plan = FailurePlan(events=[FailureEvent(time_ms=seconds(60))])
    scheme = build_scheme("st", "bert-base", 2)
    result = run_simulation(scheme, trace, SimulationConfig(failures=plan))
    assert result.stats.count == len(trace)


def test_fleet_wide_blackout_across_a_period_end_holds_the_deployment():
    # Both instances are suspended from 3.5 s to 4.5 s, so the 4 s
    # reschedule finds nothing deployable. The Runtime Scheduler keeps
    # the current deployment; the blacked-out work retries and every
    # request completes once the instances resume.
    trace = bursty_trace(rate=50, duration_s=10, seed=3)
    scheme = build_scheme(
        "arlo", "bert-base", 2,
        trace_hint=trace.slice_time(0, seconds(2)),
        runtime_scheduler_config=RuntimeSchedulerConfig(period_ms=seconds(2)),
    )
    plan = FaultPlan(events=[
        BlackoutEvent(time_ms=3_500.0, victim_rank=0, duration_ms=seconds(1)),
        BlackoutEvent(time_ms=3_500.0, victim_rank=1, duration_ms=seconds(1)),
    ])
    result = run_simulation(scheme, trace, SimulationConfig(failures=plan))
    assert result.stats.count == len(trace)
    assert result.control_stats["blackouts"] == 2
    assert seconds(4) in [t for t, _, _ in scheme.runtime_scheduler.history]
    assert scheme.cluster.num_active_instances == 2


def test_fleet_wide_crash_with_recovery_pending_at_a_period_end_holds():
    # All eight instances crash at 4.5 s and recover at 5.5 s, so the
    # 5 s reschedule finds no active instance but eight provisioned GPUs
    # waiting for their recoveries. The deployment is held and every
    # request completes on the recovered fleet.
    trace = bursty_trace(rate=50, duration_s=10, seed=3)
    scheme = build_scheme(
        "arlo", "bert-large", 8,
        trace_hint=trace.slice_time(0, seconds(2)),
        runtime_scheduler_config=RuntimeSchedulerConfig(period_ms=seconds(5)),
    )
    plan = FailurePlan(events=[
        FailureEvent(time_ms=4_500.0, victim_rank=0, recovery_ms=1_000.0)
        for _ in range(8)
    ])
    result = run_simulation(scheme, trace, SimulationConfig(failures=plan))
    assert result.stats.count == len(trace)
    assert result.control_stats["failures"] == 8
    held = [alloc for t, _, alloc in scheme.runtime_scheduler.history
            if t == seconds(5)]
    assert len(held) == 1 and held[0].sum() == 0
    assert scheme.cluster.num_active_instances == 8
