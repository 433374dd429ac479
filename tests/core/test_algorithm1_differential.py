"""Every Algorithm 1 entry point against the plain-list reference walk.

``tests/core/algorithm1_reference.py`` states the candidate walk without
counters or inlining. ``select``, ``dispatch``, ``dispatch_fast`` and the
probe narration of sampled requests must agree with it on the chosen
instance, level, ideal level, peek count, fallback, the four dispatch
counters and the narrated ``(level, P, threshold, verdict)`` tuples —
over random allocations with empty levels, random loads, λ/α/L, a random
breaker gate, stale heap entries left by load changes and suspensions,
and the no-candidate :class:`CapacityError`.

Each scenario is replayed on one cluster per entry point plus one for
the reference, built identically so instance ids line up.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.instance import InstanceStatus
from repro.cluster.state import ClusterState
from repro.core.mlq import MultiLevelQueue
from repro.core.request_scheduler import (
    ArloRequestScheduler,
    RequestSchedulerConfig,
)
from repro.errors import CapacityError
from tests.core.algorithm1_reference import algorithm1
from tests.core.helpers import make_registry

MAX_LENGTHS = [64, 128, 192, 256, 320, 384, 448, 512]
CAPACITIES = [90, 80, 70, 60, 50, 45, 42, 40]
REGISTRY = make_registry(MAX_LENGTHS, CAPACITIES)

ENTRY_POINTS = ("select", "dispatch", "dispatch_fast", "narrated")


@st.composite
def scenarios(draw):
    alloc = draw(st.lists(st.integers(0, 3), min_size=8, max_size=8))
    if not any(alloc):
        alloc[draw(st.integers(0, 7))] = 1
    n = sum(alloc)
    loads = draw(st.lists(st.integers(0, 100), min_size=n, max_size=n))
    config = RequestSchedulerConfig(
        lam=draw(st.floats(0.05, 1.0)),
        alpha=draw(st.floats(0.05, 1.0)),
        max_peek_levels=draw(st.integers(1, 8)),
    )
    gated = draw(st.none() | st.frozensets(st.integers(0, n - 1)))
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("dispatch"), st.integers(1, 512)),
            st.tuples(st.sampled_from(["complete", "suspend", "resume",
                                       "refresh"]),
                      st.integers(0, n - 1)),
        ),
        min_size=1, max_size=40,
    ))
    return alloc, loads, config, gated, ops


def build(alloc, loads, config, gated):
    state = ClusterState.bootstrap(REGISTRY, alloc)
    mlq = MultiLevelQueue.from_cluster(state)
    instances = sorted(state.instances.values(), key=lambda i: i.instance_id)
    for inst, load in zip(instances, loads):
        for _ in range(load):
            inst.enqueue(0.0, 1)
        mlq.refresh(inst)  # the bootstrap entry is now stale
    gate = None
    if gated is not None:
        blocked = {instances[k].instance_id for k in gated}

        def gate(inst):
            return inst.instance_id not in blocked

    scheduler = ArloRequestScheduler(
        registry=REGISTRY, mlq=mlq, config=config, gate=gate
    )
    return instances, mlq, scheduler


def counters(scheduler):
    return (scheduler.dispatched, scheduler.demotions, scheduler.fallbacks,
            scheduler.gated)


def apply(op, index, instances, mlq):
    """A load change that leaves stale heap entries behind."""
    inst = instances[index]
    if op == "complete" and inst.outstanding > 0:
        inst.complete()
    elif op == "suspend" and inst.status is InstanceStatus.ACTIVE:
        inst.suspend()  # stays an MLQ member; head() must skip it
    elif op == "resume" and inst.status is InstanceStatus.SUSPENDED:
        inst.resume()
    mlq.refresh(inst)


def run_entry_point(name, scheduler, mlq, now, length, probes):
    """Dispatch through one entry point (``narrated`` is ``dispatch``
    with ``probes`` collecting the walk's narration).

    Returns ``(instance, level, ideal, peeked, fell_back, start,
    finish)``; fields an entry point does not report are None.
    """
    if name == "select":
        d = scheduler.select(length)
        start, finish = d.instance.enqueue(now, length)
        mlq.refresh(d.instance)
    elif name == "dispatch":
        d, start, finish = scheduler.dispatch(now, length)
    elif name == "dispatch_fast":
        inst, start, finish = scheduler.dispatch_fast(now, length)
        return inst, inst.runtime_index, None, None, None, start, finish
    else:
        d, start, finish = scheduler.dispatch(now, length, probes)
    return (d.instance, d.level, d.ideal_level, d.levels_peeked,
            d.fell_back, start, finish)


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_entry_points_match_reference(params):
    alloc, loads, config, gated, ops = params
    ref_instances, ref_mlq, ref = build(alloc, loads, config, gated)
    worlds = {name: build(alloc, loads, config, gated)
              for name in ENTRY_POINTS}
    expected_counters = [0, 0, 0, 0]

    for step, (op, arg) in enumerate(ops):
        now = float(step)
        if op != "dispatch":
            apply(op, arg, ref_instances, ref_mlq)
            for instances, mlq, _ in worlds.values():
                apply(op, arg, instances, mlq)
            continue

        walk = algorithm1(REGISTRY, ref_mlq, config, arg, ref.gate)
        expected_counters[3] += walk.gated
        if walk.instance is not None:
            start, finish = walk.instance.enqueue(now, arg)
            ref_mlq.refresh(walk.instance)
            expected_counters[0] += 1
            expected_counters[1] += walk.level > walk.ideal
            expected_counters[2] += walk.fell_back

        for name, (_, mlq, scheduler) in worlds.items():
            probes = []
            if walk.instance is None:
                try:
                    run_entry_point(name, scheduler, mlq, now, arg, probes)
                except CapacityError:
                    pass
                else:
                    raise AssertionError(f"{name} dispatched with no candidate")
            else:
                inst, level, ideal, peeked, fell_back, g_start, g_finish = (
                    run_entry_point(name, scheduler, mlq, now, arg, probes)
                )
                assert inst.instance_id == walk.instance.instance_id, name
                assert level == walk.level, name
                assert (g_start, g_finish) == (start, finish), name
                if ideal is not None:
                    assert (ideal, peeked, fell_back) == (
                        walk.ideal, walk.peeked, walk.fell_back
                    ), name
            if name == "narrated":
                assert tuple(probes) == walk.probes
            assert counters(scheduler) == tuple(expected_counters), name
