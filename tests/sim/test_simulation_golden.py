"""Golden regression: the discriminative event loop is bit-exact.

``run_simulation`` without a generative config serves each request as
one interval. These pins cover its four regimes — fault-free Arlo, a
chaos fault plan under the resilience manager, target-tracking
auto-scaling, and full observability with decision logging — so a
simplification of the loop or of Algorithm 1 dispatch can prove it
changed no behaviour. Same style as ``test_generative_golden.py``:
sha256 over the ``repr`` of the pinned field tuple, floats in
``float.hex()`` form so the pin is exact, not approximate.

If one of these fails, the loop's float stream, event order or
counters changed — that is a correctness regression unless the change
is deliberate (in which case recompute the digests *and say so in the
commit*).
"""

import hashlib

import numpy as np
import pytest

from repro.baselines.schemes import build_scheme
from repro.cluster.autoscaler import AutoscalerConfig
from repro.core.runtime_scheduler import RuntimeSchedulerConfig
from repro.obs.spans import ObservabilityConfig
from repro.resilience.manager import ResilienceConfig
from repro.sim.faults import FaultPlan
from repro.sim.simulation import SimulationConfig, run_simulation
from repro.units import seconds
from repro.workload import generate_twitter_trace

DURATION_MS = seconds(12)


def _config(name: str) -> SimulationConfig:
    if name == "arlo":
        return SimulationConfig()
    if name == "chaos":
        return SimulationConfig(
            failures=FaultPlan.chaos(
                DURATION_MS, crashes=2, slowdowns=2, blackouts=2,
                solver_faults=1, seed=5, recovery_ms=seconds(2),
                slowdown_ms=seconds(3), blackout_ms=seconds(1),
            ),
            resilience=ResilienceConfig(),
        )
    if name == "autoscaler":
        return SimulationConfig(
            enable_autoscaler=True,
            autoscaler=AutoscalerConfig(
                slo_ms=150.0, min_gpus=2, max_gpus=10, window_size=128,
                scale_in_period_ms=seconds(4),
            ),
        )
    if name == "observability":
        return SimulationConfig(
            observability=ObservabilityConfig(sample_rate=1.0),
            trace_decisions=200,
        )
    raise KeyError(name)


def _canon(value):
    return value.hex() if isinstance(value, float) else value


def _golden_fields(name: str, seed: int) -> tuple:
    trace = generate_twitter_trace(
        rate_per_s=500, duration_ms=DURATION_MS, pattern="bursty",
        seed=seed, drift_scale=0.15, drift_window_ms=seconds(4),
    )
    scheme = build_scheme(
        "arlo", "bert-base", 5,
        trace_hint=trace.slice_time(0, seconds(3)),
        runtime_scheduler_config=RuntimeSchedulerConfig(
            period_ms=seconds(3)
        ),
    )
    result = run_simulation(scheme, trace, _config(name))
    latencies = np.sort(result.latencies())
    dispatch = {
        key: value for key, value in result.dispatch_stats.items()
        if key != "batched"
    }
    return (
        result.stats.count,
        result.stats.mean_ms.hex(),
        result.p98_ms.hex(),
        result.end_ms.hex(),
        result.time_weighted_gpus.hex(),
        hashlib.sha256(latencies.tobytes()).hexdigest(),
        result.events_processed,
        tuple(sorted(
            (k, _canon(v)) for k, v in result.control_stats.items()
        )),
        tuple(sorted((k, _canon(v)) for k, v in dispatch.items())),
        len(result.spans),
        len(result.decision_log),
    )


def _digest(fields: tuple) -> str:
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


#: (config name, trace seed) -> baseline digest, recorded before the
#: batch-dispatch and columnar data-plane paths were removed.
GOLDEN = {
    ("arlo", 31): "dd705317863878e2",
    ("chaos", 32): "abd4f84670836ea6",
    ("autoscaler", 33): "6cc4b5630e2014e0",
    ("observability", 34): "682a835bc49b0cef",
}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_discriminative_loop_matches_baseline(name, seed):
    fields = _golden_fields(name, seed)
    assert _digest(fields) == GOLDEN[(name, seed)], fields
