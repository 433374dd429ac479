"""CongestionTracker conservation: unit lifecycles + chaos simulation."""

import numpy as np
import pytest

from repro.baselines.schemes import build_scheme
from repro.errors import ConfigurationError
from repro.perf.counters import CongestionTracker
from repro.runtimes.models import get_model
from repro.runtimes.registry import build_polymorph_set
from repro.runtimes.staircase import polymorph_lengths_for_count
from repro.sim.faults import FaultPlan
from repro.sim.simulation import SimulationConfig, run_simulation
from repro.units import seconds
from repro.cluster.state import ClusterState


def small_cluster():
    model = get_model("bert-base")
    registry = build_polymorph_set(
        model,
        max_lengths=polymorph_lengths_for_count(model.max_length, 3),
    )
    return ClusterState.bootstrap(registry, [2, 1, 1])


def check(cluster):
    cluster.congestion.verify(cluster.instances.values())


def test_tracker_validation():
    with pytest.raises(ConfigurationError):
        CongestionTracker(num_levels=0)


def test_bootstrap_wires_tracker():
    cluster = small_cluster()
    assert all(i.tracker is cluster.congestion for i in cluster.instances.values())
    assert np.array_equal(cluster.allocation(), [2, 1, 1])
    assert cluster.total_outstanding() == 0
    check(cluster)


def test_enqueue_complete_lifecycle():
    cluster = small_cluster()
    inst = cluster.active_instances(0)[0]
    for _ in range(3):
        inst.enqueue(0.0, inst.max_length)
    check(cluster)
    assert cluster.total_outstanding() == 3
    assert cluster.congestion.outstanding[0] == 3
    inst.complete()
    check(cluster)
    assert cluster.total_outstanding() == 2


def test_drain_keeps_all_outstanding_until_completion():
    # A draining donor leaves the active aggregates but its in-flight
    # work still counts toward total_outstanding until it completes.
    cluster = small_cluster()
    inst = cluster.active_instances(1)[0]
    inst.enqueue(0.0, inst.max_length)
    inst.begin_drain()
    check(cluster)
    assert cluster.congestion.active[1] == 0
    assert cluster.congestion.outstanding[1] == 0
    assert cluster.total_outstanding() == 1
    inst.complete()
    inst.retire()  # drain→retire after crash-path deactivate is a no-op
    check(cluster)
    assert cluster.total_outstanding() == 0


def test_crash_voids_outstanding_work():
    cluster = small_cluster()
    inst = cluster.active_instances(0)[0]
    inst.enqueue(0.0, inst.max_length)
    inst.enqueue(0.0, inst.max_length)
    _, lost = cluster.crash_instance(inst)
    assert lost == 2
    check(cluster)
    assert cluster.total_outstanding() == 0
    assert cluster.congestion.active[0] == 1


def test_suspend_resume_roundtrip():
    cluster = small_cluster()
    inst = cluster.active_instances(2)[0]
    inst.enqueue(0.0, inst.max_length)
    lost = inst.suspend()
    assert lost == 1
    check(cluster)
    assert cluster.congestion.active[2] == 0
    assert cluster.total_outstanding() == 0
    inst.resume()
    check(cluster)
    assert cluster.congestion.active[2] == 1
    assert cluster.congestion.capacity[2] == inst.capacity


def test_double_deactivate_is_idempotent():
    cluster = small_cluster()
    inst = cluster.active_instances(0)[0]
    cluster.congestion.deactivate(inst)
    cluster.congestion.deactivate(inst)  # must not double-subtract
    assert cluster.congestion.active[0] == 1
    cluster.congestion.activate(inst)
    cluster.congestion.activate(inst)  # must not double-add
    assert cluster.congestion.active[0] == 2
    check(cluster)


def test_deploy_and_retire_adjust_capacity():
    cluster = small_cluster()
    before = cluster.congestion.total_capacity()
    inst = cluster.deploy_on_new_gpu(0)
    check(cluster)
    assert cluster.congestion.total_capacity() == before + inst.capacity
    inst.begin_drain()
    cluster.retire_instance(inst)
    check(cluster)
    assert cluster.congestion.total_capacity() == before


@pytest.mark.parametrize("scheme_name", ["arlo", "st"])
def test_counters_conserve_under_chaos(scheme_name):
    """End-to-end: retries, quarantine, blackouts, and replacement churn
    must leave the O(1) aggregates equal to a from-scratch recount."""
    from repro.workload.twitter import generate_twitter_trace

    horizon = seconds(30)
    trace = generate_twitter_trace(
        rate_per_s=150, duration_ms=horizon, seed=17
    )
    plan = FaultPlan.chaos(
        horizon, crashes=2, slowdowns=2, blackouts=2, solver_faults=1, seed=5
    )
    scheme = build_scheme(scheme_name, "bert-base", 4)
    result = run_simulation(
        scheme, trace, SimulationConfig(failures=plan)
    )
    assert result.stats.count > 0
    check(scheme.cluster)
    # Every admitted request either completed or was voided by a fault;
    # nothing may linger in the O(1) totals after the drain.
    assert scheme.cluster.total_outstanding() == 0
    assert scheme.cluster.num_active_instances == int(
        cluster_active_recount(scheme.cluster)
    )


def cluster_active_recount(cluster) -> int:
    return sum(1 for i in cluster.instances.values() if i.is_active)
