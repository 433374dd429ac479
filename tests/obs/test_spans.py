"""Span life-cycle contracts of the request tracer.

The load-bearing invariants: at sample rate 1.0 every request yields
exactly one finished span whose latency reconciles with the metrics
collector; at rate 0 the simulator allocates **zero** span objects (the
overhead contract the perf gate enforces); and the sampling verdict is
a pure function of the request id.
"""

import pytest

from repro.baselines.schemes import build_scheme
from repro.errors import ConfigurationError
from repro.obs.spans import ObservabilityConfig, RequestSpan, RequestTracer
from repro.sim.faults import FaultPlan
from repro.sim.simulation import SimulationConfig, run_simulation
from repro.units import seconds
from repro.workload.twitter import generate_twitter_trace
from tests.obs.helpers import assert_walk_narrated


def _chaos_run(sample_rate: float, scheme_name: str = "arlo"):
    trace = generate_twitter_trace(
        rate_per_s=150.0, duration_ms=seconds(10), pattern="bursty", seed=9
    )
    scheme = build_scheme(
        scheme_name, "bert-large", 6,
        trace_hint=trace.slice_time(0, seconds(2)),
    )
    config = SimulationConfig(
        failures=FaultPlan.chaos(
            seconds(10), crashes=2, slowdowns=1, blackouts=1, seed=4
        ),
        observability=ObservabilityConfig(sample_rate=sample_rate),
    )
    return run_simulation(scheme, trace, config)


def test_span_count_matches_request_count_under_chaos():
    result = _chaos_run(1.0)
    assert len(result.spans) == result.stats.count
    assert all(s.final_phase == "complete" for s in result.spans)
    # Every span carries the full life cycle: admission, the narrated
    # Algorithm 1 walk, a dispatch, and the terminal completion.
    for span in result.spans:
        phases = [e["phase"] for e in span.events]
        assert phases[0] == "admit"
        assert phases[-1] == "complete"
        assert "dispatch" in phases
        assert assert_walk_narrated(span)


def test_span_latencies_reconcile_with_metrics():
    """Σ span latency == the sketch's exact running total (warmup 0)."""
    result = _chaos_run(1.0)
    span_total = sum(s.latency_ms for s in result.spans)
    result.metrics._sync_sketch()
    assert span_total == pytest.approx(
        result.metrics.sketch.total_ms, rel=1e-9
    )


def test_spans_attribute_latency_components():
    result = _chaos_run(1.0)
    retried = [s for s in result.spans if s.retry_wait_ms > 0]
    assert result.control_stats["retries"] == 0 or retried
    for span in result.spans:
        assert span.latency_ms >= 0
        assert span.queue_ms == pytest.approx(
            max(
                0.0,
                span.latency_ms - span.service_ms - span.retry_wait_ms,
            )
        )


def test_sampling_off_allocates_zero_spans():
    before = RequestSpan.total_allocated
    result = _chaos_run(0.0)
    assert result.spans == []
    assert RequestSpan.total_allocated == before


def test_baseline_scheme_spans_lack_probes_but_complete():
    result = _chaos_run(1.0, scheme_name="dt")
    assert len(result.spans) == result.stats.count
    assert all(
        e["phase"] != "probe" for s in result.spans for e in s.events
    )


def test_decision_logging_keeps_probe_narration():
    # Logging the first decisions must not take the walk narration
    # away from sampled requests, inside or after the logging window.
    trace = generate_twitter_trace(
        rate_per_s=150.0, duration_ms=seconds(5), pattern="bursty", seed=9
    )
    scheme = build_scheme(
        "arlo", "bert-large", 6, trace_hint=trace.slice_time(0, seconds(2)),
    )
    result = run_simulation(scheme, trace, SimulationConfig(
        observability=ObservabilityConfig(sample_rate=1.0),
        trace_decisions=100,
    ))
    assert len(result.decision_log) == 100
    assert len(result.spans) == len(trace)
    assert all(assert_walk_narrated(span) for span in result.spans)
    spans = {span.request_id: span for span in result.spans}
    for entry in result.decision_log:
        dispatch = next(e for e in spans[entry["request_id"]].events
                        if e["phase"] == "dispatch")
        assert dispatch["level"] == entry["chosen_level"]
        assert dispatch["ideal_level"] == entry["ideal_level"]
        assert dispatch["fallback"] == entry["fell_back"]


def test_sampling_is_deterministic_and_proportional():
    tracer_a = RequestTracer(0.25)
    tracer_b = RequestTracer(0.25)
    verdicts = [tracer_a.sampled(i) for i in range(20_000)]
    assert verdicts == [tracer_b.sampled(i) for i in range(20_000)]
    hit_rate = sum(verdicts) / len(verdicts)
    assert 0.22 < hit_rate < 0.28
    assert all(RequestTracer(1.0).sampled(i) for i in range(1000))
    assert not any(RequestTracer(0.0).sampled(i) for i in range(1000))


def test_partial_sampling_traces_a_subset():
    result = _chaos_run(0.25)
    assert 0 < len(result.spans) < result.stats.count
    tracer = RequestTracer(0.25)
    assert all(tracer.sampled(s.request_id) for s in result.spans)


def test_max_spans_cap_drops_overflow():
    tracer = RequestTracer(1.0, max_spans=2)
    for rid in range(5):
        tracer.begin(0.0, rid, 0.0, 10)
        tracer.on_complete(rid, 5.0, 2.0)
    assert len(tracer.finished) == 2
    assert tracer.dropped == 3
    assert tracer.stats()["dropped"] == 3


def test_invalid_sample_rate_rejected():
    with pytest.raises(ConfigurationError):
        RequestTracer(1.5)
    with pytest.raises(ConfigurationError):
        ObservabilityConfig(sample_rate=-0.1)
    with pytest.raises(ConfigurationError):
        ObservabilityConfig(max_spans=-1)


def test_span_to_dict_round_trips_key_fields():
    tracer = RequestTracer(1.0)
    span = tracer.begin(1.0, 7, 1.0, 99)
    tracer.on_dispatch(span, 1.0, level=3, ideal_level=1, instance="i4")
    tracer.on_complete(7, 9.0, 6.5)
    d = span.to_dict()
    assert d["request_id"] == 7
    assert d["level"] == 3 and d["ideal_level"] == 1 and d["demoted"]
    assert d["latency_ms"] == pytest.approx(8.0)
    assert d["service_ms"] == pytest.approx(6.5)
    assert [e["phase"] for e in d["events"]] == [
        "admit", "dispatch", "complete"
    ]
