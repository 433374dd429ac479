"""Golden regression: the generative decode loop is bit-exact.

The disaggregated pools PR touches ``repro.sim.generative`` (TPOT
accounting, the ``GenerativeConfig.disagg`` field); these pins prove
the co-located path (``SimulationConfig.generative`` without disagg)
still produces byte-for-byte the PR 7 baseline results. The digests
were computed at the PR 7 head, same style as
``tests/workload/test_golden_traces.py``: sha256 over the ``repr`` of
the pinned field tuple, floats in ``float.hex()`` form so the pin is
exact, not approximate.

``FULL_GOLDEN`` extends the pins to a fault plan on the co-located
loop and to every disaggregated-pool regime (default, chunked, gang,
frozen partition, role flips, and a crash mid-handoff with a blackout,
a slowdown and a solver fault), hashing the whole result the way
``test_simulation_golden.py`` does.

If one of these fails, the generative event loop's float stream or
event ordering changed — that is a correctness regression unless the
change is deliberate (in which case recompute the digests *and say so
in the commit*).
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.baselines.schemes import build_scheme
from repro.core.runtime_scheduler import RuntimeSchedulerConfig
from repro.obs.spans import ObservabilityConfig
from repro.resilience.retry import RetryPolicy
from repro.sim.disagg import DisaggConfig
from repro.sim.faults import (
    BlackoutEvent,
    FailureEvent,
    FaultPlan,
    SlowdownEvent,
    SolverFaultEvent,
)
from repro.sim.generative import GenerativeConfig
from repro.sim.simulation import SimulationConfig, run_simulation
from repro.units import seconds
from repro.workload.generative import (
    GenerativeTraceConfig,
    generate_generative_trace,
)

pytestmark = pytest.mark.generative


def _golden_fields(seed: int, gen: GenerativeConfig) -> tuple:
    trace = generate_generative_trace(
        GenerativeTraceConfig(
            rate_per_s=250, duration_ms=seconds(5),
            pattern="bursty", seed=seed,
        )
    )
    scheme = build_scheme(
        "arlo", "bert-base", 4,
        trace_hint=trace.slice_time(0, seconds(2)),
        runtime_scheduler_config=RuntimeSchedulerConfig(
            period_ms=seconds(60)
        ),
    )
    result = run_simulation(scheme, trace, SimulationConfig(generative=gen))
    return (
        result.stats.count,
        result.stats.mean_ms.hex(),
        result.p98_ms.hex(),
        result.control_stats["decode_steps"],
        result.control_stats["step_events"],
        result.control_stats["batch_joins"],
        result.dispatch_stats["ttft_mean_ms"].hex(),
        result.dispatch_stats["ttft_p50_ms"].hex(),
        result.dispatch_stats["ttft_p98_ms"].hex(),
    )


def _digest(fields: tuple) -> str:
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


#: (seed, config kwargs) -> PR 7 baseline digest. Three configurations
#: cover the three decode-loop regimes: continuous batching, chunked
#: small-batch, and gang scheduling.
GOLDEN = {
    (11, ()): "9b0077e5659ff532",
    (21, (("max_batch", 4), ("chunk_steps", 2))): "de30e7b09d2798f7",
    (7, (("continuous_batching", False),)): "0ae823fc1f0e673d",
}


@pytest.mark.parametrize("seed,kwargs", sorted(GOLDEN, key=repr))
def test_colocated_generative_matches_pr7_baseline(seed, kwargs):
    fields = _golden_fields(seed, GenerativeConfig(**dict(kwargs)))
    assert _digest(fields) == GOLDEN[(seed, kwargs)], fields


# ---------------------------------------------------------------------------
# Full-result pins: fault plans on the co-located loop and every
# disaggregated-pool regime. Same hashing as ``test_simulation_golden.py``:
# all of control_stats and dispatch_stats, a digest of the sorted
# latencies, the event count, the span count and the timeline's
# (category, kind) counts.
# ---------------------------------------------------------------------------

def _fault_plan(crash_ms: float, crash_rank: int, recovery_ms: float):
    return FaultPlan(events=[
        SolverFaultEvent(time_ms=seconds(0.5)),
        FailureEvent(time_ms=crash_ms, victim_rank=crash_rank,
                     recovery_ms=recovery_ms),
        SlowdownEvent(time_ms=seconds(1.5), factor=3.0,
                      duration_ms=seconds(2)),
        BlackoutEvent(time_ms=seconds(3.5), duration_ms=seconds(1)),
    ])


#: name -> (trace seed, GPUs, scheduler period (s), simulation config).
CASES = {
    "colocated_chaos": (61, 4, 1, lambda: SimulationConfig(
        generative=GenerativeConfig(),
        failures=_fault_plan(seconds(2), 0, seconds(2)),
        retry=RetryPolicy(),
        observability=ObservabilityConfig(sample_rate=1.0, timeline=True),
    )),
    "disagg": (11, 6, 60, lambda: SimulationConfig(
        generative=GenerativeConfig(disagg=DisaggConfig()),
    )),
    "disagg_chunked": (21, 6, 60, lambda: SimulationConfig(
        generative=GenerativeConfig(max_batch=4, chunk_steps=2,
                                    disagg=DisaggConfig()),
    )),
    "disagg_gang": (7, 6, 60, lambda: SimulationConfig(
        generative=GenerativeConfig(continuous_batching=False,
                                    disagg=DisaggConfig()),
    )),
    "disagg_frozen": (9, 6, 1, lambda: SimulationConfig(
        generative=GenerativeConfig(disagg=DisaggConfig(rebalance=False)),
    )),
    "disagg_flips": (13, 8, 1, lambda: SimulationConfig(
        generative=GenerativeConfig(disagg=DisaggConfig(
            prefill_fraction=0.75, max_flips_per_period=2,
        )),
        observability=ObservabilityConfig(sample_rate=0.0, timeline=True),
    )),
    # tests/sim/test_disagg.py::chaos_run's decode crash mid-handoff,
    # plus a blackout, a slowdown and a solver fault.
    "disagg_chaos": (11, 6, 1, lambda: SimulationConfig(
        generative=GenerativeConfig(
            disagg=DisaggConfig(transfer_ms_per_token=5.0)
        ),
        failures=_fault_plan(1200.0, 0, 700.0),
        retry=RetryPolicy(),
        observability=ObservabilityConfig(sample_rate=1.0, timeline=True),
    )),
}


def _canon(value):
    return value.hex() if isinstance(value, float) else value


def _full_fields(name: str) -> tuple:
    seed, gpus, period_s, make_config = CASES[name]
    trace = generate_generative_trace(
        GenerativeTraceConfig(
            rate_per_s=300, duration_ms=seconds(6),
            pattern="bursty", seed=seed,
        )
    )
    scheme = build_scheme(
        "arlo", "bert-base", gpus,
        trace_hint=trace.slice_time(0, seconds(2)),
        runtime_scheduler_config=RuntimeSchedulerConfig(
            period_ms=seconds(period_s)
        ),
    )
    result = run_simulation(scheme, trace, make_config())
    latencies = np.sort(result.latencies())
    timeline = Counter(
        (e.category, e.kind)
        for e in (result.timeline.events if result.timeline else ())
    )
    return (
        result.stats.count,
        result.end_ms.hex(),
        hashlib.sha256(latencies.tobytes()).hexdigest(),
        result.events_processed,
        tuple(sorted(
            (k, _canon(v)) for k, v in result.control_stats.items()
        )),
        tuple(sorted(
            (k, _canon(v)) for k, v in result.dispatch_stats.items()
        )),
        len(result.spans),
        tuple(sorted(timeline.items())),
    )


#: Case name -> digest, recorded before the disaggregated loop was
#: folded into the generative one.
FULL_GOLDEN = {
    "colocated_chaos": "13623d79b1174f3b",
    "disagg": "c150b151bc317b42",
    "disagg_chunked": "c2cf57f865d77bc1",
    "disagg_gang": "d09ec28be5c8aabd",
    "disagg_frozen": "de0bd5b3d5fc404c",
    "disagg_flips": "6922bea7e14f6636",
    "disagg_chaos": "f3e5447d2f5c69d7",
}


@pytest.mark.parametrize("name", sorted(FULL_GOLDEN))
def test_generative_loop_matches_baseline(name):
    fields = _full_fields(name)
    assert _digest(fields) == FULL_GOLDEN[name], fields
