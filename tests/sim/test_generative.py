"""Generative data plane: decode event loop, batching, chaos, spans.

Hard invariants under every configuration: each request completes
exactly once, the simulated decode-step count equals the trace's token
budget (``total_decode_steps``), and the congestion tracker's decode
occupancy drains to zero when the run ends.
"""

import json

import pytest

from repro.baselines.schemes import build_scheme
from repro.cluster.autoscaler import AutoscalerConfig
from repro.core.runtime_scheduler import RuntimeSchedulerConfig
from repro.errors import ConfigurationError
from repro.obs.exporters import write_spans_jsonl
from repro.obs.schema import load_schema, validate_jsonl
from repro.obs.spans import ObservabilityConfig
from repro.resilience.manager import ResilienceConfig
from repro.resilience.retry import RetryPolicy
from repro.sim.events import decode_task_pool_stats
from repro.sim.faults import BlackoutEvent, FailureEvent, FaultPlan, SlowdownEvent
from repro.sim.generative import GenerativeConfig
from repro.sim.simulation import SimulationConfig, run_simulation
from repro.units import seconds
from repro.workload.generative import GenerativeTraceConfig, generate_generative_trace
from repro.workload.twitter import generate_twitter_trace
from tests.obs.helpers import assert_walk_narrated

pytestmark = pytest.mark.generative


def make_trace(seed=11, rate=300, duration_s=6, pattern="bursty"):
    return generate_generative_trace(
        GenerativeTraceConfig(
            rate_per_s=rate, duration_ms=seconds(duration_s),
            pattern=pattern, seed=seed,
        )
    )


def make_scheme(trace, gpus=4):
    return build_scheme(
        "arlo", "bert-base", gpus,
        trace_hint=trace.slice_time(0, seconds(2)),
        runtime_scheduler_config=RuntimeSchedulerConfig(
            period_ms=seconds(60)
        ),
    )


def run(trace, generative, *, gpus=4, **kwargs):
    scheme = make_scheme(trace, gpus=gpus)
    config = SimulationConfig(generative=generative, **kwargs)
    return scheme, run_simulation(scheme, trace, config)


@pytest.mark.parametrize("gen", [
    GenerativeConfig(),                                   # continuous, b=8
    GenerativeConfig(max_batch=1),                        # serial decode
    GenerativeConfig(max_batch=8, continuous_batching=False),  # gang
    GenerativeConfig(chunk_steps=4),                      # chunked steps
])
def test_conservation_across_batching_modes(gen):
    trace = make_trace()
    scheme, result = run(trace, gen)
    assert result.stats.count == len(trace)
    assert result.control_stats["decode_steps"] == trace.total_decode_steps
    assert scheme.cluster.total_outstanding() == 0
    for inst in scheme.cluster.instances.values():
        if inst.tracker is not None:
            assert inst.tracker.total_decoding() == 0
            break


def test_deterministic_rerun():
    trace = make_trace(seed=21)
    _, a = run(trace, GenerativeConfig())
    _, b = run(trace, GenerativeConfig())
    assert a.stats.count == b.stats.count
    assert a.stats.mean_ms == b.stats.mean_ms
    assert a.p98_ms == b.p98_ms
    assert a.control_stats["decode_steps"] == b.control_stats["decode_steps"]
    assert a.control_stats["step_events"] == b.control_stats["step_events"]
    assert a.control_stats["batch_joins"] == b.control_stats["batch_joins"]
    assert a.dispatch_stats["ttft_p98_ms"] == b.dispatch_stats["ttft_p98_ms"]


def test_continuous_batching_coalesces_steps():
    """Batched decode must fire far fewer events than serial decode,
    and requests must actually join running batches mid-flight."""
    trace = make_trace(seed=31)
    _, batched = run(trace, GenerativeConfig(max_batch=8))
    _, serial = run(trace, GenerativeConfig(max_batch=1))
    assert batched.control_stats["batch_joins"] > 0
    assert batched.control_stats["step_events"] < serial.control_stats["step_events"]
    # Serial decode never amortises: one event per chunk of one request.
    assert serial.control_stats["batch_joins"] == 0
    # Same token budget either way.
    assert (batched.control_stats["decode_steps"]
            == serial.control_stats["decode_steps"]
            == trace.total_decode_steps)
    # Batching shares step cost, so mean latency must not be worse.
    assert batched.stats.mean_ms <= serial.stats.mean_ms


def test_gang_mode_never_joins_mid_batch():
    trace = make_trace(seed=41)
    _, gang = run(trace, GenerativeConfig(max_batch=8,
                                          continuous_batching=False))
    assert gang.control_stats["batch_joins"] == 0
    assert gang.stats.count == len(trace)


def test_ttft_reported():
    trace = make_trace(seed=51, rate=200, duration_s=4)
    _, result = run(trace, GenerativeConfig())
    stats = result.dispatch_stats
    assert stats["ttft_mean_ms"] > 0
    assert stats["ttft_p50_ms"] <= stats["ttft_p98_ms"]
    # First token lands before the full completion on average.
    assert stats["ttft_mean_ms"] < result.stats.mean_ms


def test_chaos_crash_mid_decode_redispatches():
    """Crash + blackout + slowdown while decode batches are in flight:
    voided in-batch work is re-dispatched (with backoff while the retry
    budget lasts) and every request still completes exactly once."""
    trace = make_trace(seed=61, rate=300, duration_s=6)
    plan = FaultPlan(events=[
        SlowdownEvent(time_ms=seconds(1.5), factor=3.0,
                      duration_ms=seconds(2)),
        FailureEvent(time_ms=seconds(2), recovery_ms=seconds(2)),
        BlackoutEvent(time_ms=seconds(3.5), duration_ms=seconds(1)),
    ])
    scheme, result = run(trace, GenerativeConfig(), failures=plan)
    assert result.stats.count == len(trace)
    assert scheme.cluster.total_outstanding() == 0
    assert result.control_stats["failures"] == 1
    assert result.control_stats["blackouts"] == 1
    assert result.control_stats["slowdowns"] == 1
    # The crash/blackout voided live decode batches -> timed-out work
    # came back through the retry path.
    assert result.control_stats["timeouts"] >= 1
    assert result.control_stats["retries"] >= 1
    # Conservation of tokens: lost steps are re-decoded from scratch,
    # so the step count can only exceed the trace budget, never trail it.
    assert result.control_stats["decode_steps"] >= trace.total_decode_steps


def test_chaos_zero_retry_budget_still_completes():
    """budget_fraction=0 now means literally zero budgeted retries (the
    satellite bugfix); lost work falls back to immediate re-admission
    and conservation still holds."""
    trace = make_trace(seed=71, rate=250, duration_s=5)
    plan = FaultPlan(events=[
        FailureEvent(time_ms=seconds(2), recovery_ms=seconds(2)),
    ])
    scheme, result = run(
        trace, GenerativeConfig(), failures=plan,
        retry=RetryPolicy(budget_fraction=0.0),
    )
    assert result.stats.count == len(trace)
    assert result.control_stats["retries"] == 0
    assert result.control_stats["retry_budget_exhausted"] >= 1
    assert scheme.cluster.total_outstanding() == 0


def test_spans_carry_first_token_and_decode_steps(tmp_path):
    trace = make_trace(seed=81, rate=150, duration_s=4)
    _, result = run(
        trace, GenerativeConfig(),
        observability=ObservabilityConfig(sample_rate=1.0),
    )
    assert len(result.spans) == len(trace)
    first_token_seen = 0
    for span in result.spans:
        phases = [event["phase"] for event in span.events]
        completes = [e for e in span.events if e["phase"] == "complete"]
        assert len(completes) == 1
        assert completes[0]["decode_steps"] >= 1
        if "first_token" in phases:
            first_token_seen += 1
            ft = next(e for e in span.events if e["phase"] == "first_token")
            assert ft["ttft_ms"] >= 0
            assert ft["batch_size"] >= 1
            assert ft["t_ms"] <= completes[0]["t_ms"]
    assert first_token_seen == len(trace)
    # The extended span events validate against the checked-in schema.
    path = tmp_path / "spans.jsonl"
    written = write_spans_jsonl(path, result.spans)
    assert validate_jsonl(path, load_schema("trace_span")) == written
    # And decode_steps round-trips through the JSONL export.
    line = json.loads(path.read_text().splitlines()[0])
    assert any("decode_steps" in event for event in line["events"])


def test_sampled_spans_narrate_the_walk(tmp_path):
    trace = make_trace(seed=81, rate=150, duration_s=4)
    _, result = run(
        trace, GenerativeConfig(),
        observability=ObservabilityConfig(sample_rate=1.0),
    )
    assert len(result.spans) == len(trace)
    assert all(assert_walk_narrated(span) for span in result.spans)
    path = tmp_path / "spans.jsonl"
    written = write_spans_jsonl(path, result.spans)
    assert validate_jsonl(path, load_schema("trace_span")) == written


def test_decode_task_pool_reuses_freed_tasks():
    trace = make_trace(seed=91, rate=150, duration_s=3)
    run(trace, GenerativeConfig())
    allocated = decode_task_pool_stats()["total_allocated"]
    run(trace, GenerativeConfig())
    # An identical rerun is fully served from the free list.
    assert decode_task_pool_stats()["total_allocated"] == allocated
    assert decode_task_pool_stats()["free"] >= 1


def test_generative_requires_generative_trace_and_clean_control_plane():
    gen_trace = make_trace(seed=5, rate=100, duration_s=2)
    plain = generate_twitter_trace(
        rate_per_s=100, duration_ms=seconds(2), pattern="bursty", seed=5
    )
    scheme = make_scheme(gen_trace)
    with pytest.raises(ConfigurationError):
        run_simulation(scheme, plain,
                       SimulationConfig(generative=GenerativeConfig()))
    with pytest.raises(ConfigurationError):
        run_simulation(
            scheme, gen_trace,
            SimulationConfig(generative=GenerativeConfig(),
                             enable_autoscaler=True),
        )
    with pytest.raises(ConfigurationError):
        run_simulation(
            scheme, gen_trace,
            SimulationConfig(generative=GenerativeConfig(),
                             resilience=ResilienceConfig()),
        )
    with pytest.raises(ConfigurationError):
        GenerativeConfig(max_batch=0)
    with pytest.raises(ConfigurationError):
        GenerativeConfig(chunk_steps=0)


def test_generative_config_rejects_decision_logging():
    # trace_decisions logs discriminative dispatches only: a generative
    # run used to accept it and return an empty decision_log.
    with pytest.raises(ConfigurationError, match="trace_decisions"):
        SimulationConfig(generative=GenerativeConfig(), trace_decisions=50)


def test_generative_config_rejects_autoscaler():
    with pytest.raises(ConfigurationError, match="autoscaler"):
        SimulationConfig(
            generative=GenerativeConfig(),
            enable_autoscaler=True,
            autoscaler=AutoscalerConfig(slo_ms=150.0),
        )


def test_generative_config_rejects_resilience_manager():
    with pytest.raises(ConfigurationError, match="resilience"):
        SimulationConfig(generative=GenerativeConfig(),
                         resilience=ResilienceConfig())


def test_discriminative_path_untouched_when_generative_off():
    """Running a generative trace through the classic prefill-only loop
    yields results byte-identical to the plain twitter trace — the
    decode column is simply ignored, so every pre-existing golden
    number stands."""
    gen_trace = make_trace(seed=7, rate=200, duration_s=4)
    plain = generate_twitter_trace(
        rate_per_s=200, duration_ms=seconds(4), pattern="bursty", seed=7
    )
    _, a = run_and_result(gen_trace)
    _, b = run_and_result(plain)
    assert a.stats.count == b.stats.count
    assert a.stats.mean_ms == b.stats.mean_ms
    assert a.p98_ms == b.p98_ms


def run_and_result(trace):
    scheme = make_scheme(trace)
    return scheme, run_simulation(scheme, trace, SimulationConfig())
