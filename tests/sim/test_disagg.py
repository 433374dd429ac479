"""Disaggregated prefill/decode pools: conservation, determinism, chaos.

Hard invariants under every configuration: each request completes
exactly once, the simulated decode-step count equals the trace's token
budget (with equality in fault-free runs and ``>=`` under faults —
re-dispatched requests redo their decode from step zero), every prompt
pays exactly one KV handoff per successful prefill, and two seeded
runs produce byte-identical statistics.
"""

import json

import pytest

from repro.baselines.schemes import build_scheme
from repro.core.runtime_scheduler import RuntimeSchedulerConfig
from repro.errors import ConfigurationError
from repro.obs.exporters import write_spans_jsonl
from repro.obs.schema import load_schema, validate_jsonl
from repro.obs.spans import ObservabilityConfig
from repro.resilience.retry import RetryPolicy
from repro.sim.disagg import DisaggConfig
from repro.sim.faults import FailureEvent, FaultPlan
from repro.sim.generative import GenerativeConfig
from repro.sim.simulation import SimulationConfig, run_simulation
from repro.units import seconds
from repro.workload.generative import GenerativeTraceConfig, generate_generative_trace
from tests.obs.helpers import assert_walk_narrated

pytestmark = [pytest.mark.disagg, pytest.mark.generative]


def make_trace(seed=11, rate=300, duration_s=6, pattern="bursty"):
    return generate_generative_trace(
        GenerativeTraceConfig(
            rate_per_s=rate, duration_ms=seconds(duration_s),
            pattern=pattern, seed=seed,
        )
    )


def make_scheme(trace, gpus=6, period_s=60):
    return build_scheme(
        "arlo", "bert-base", gpus,
        trace_hint=trace.slice_time(0, seconds(2)),
        runtime_scheduler_config=RuntimeSchedulerConfig(
            period_ms=seconds(period_s)
        ),
    )


def run(trace, generative, *, gpus=6, period_s=60, **kwargs):
    scheme = make_scheme(trace, gpus=gpus, period_s=period_s)
    config = SimulationConfig(generative=generative, **kwargs)
    return scheme, run_simulation(scheme, trace, config)


@pytest.mark.parametrize("gen", [
    GenerativeConfig(disagg=DisaggConfig()),
    GenerativeConfig(disagg=DisaggConfig(transfer_ms_per_token=0.0)),
    GenerativeConfig(disagg=DisaggConfig(prefill_fraction=0.75,
                                         max_flips_per_period=2)),
    GenerativeConfig(max_batch=4, chunk_steps=2, disagg=DisaggConfig()),
    GenerativeConfig(continuous_batching=False, disagg=DisaggConfig()),
    GenerativeConfig(disagg=DisaggConfig(rebalance=False)),
])
def test_conservation_across_disagg_configs(gen):
    trace = make_trace()
    scheme, result = run(trace, gen)
    assert result.stats.count == len(trace)
    assert result.control_stats["decode_steps"] == trace.total_decode_steps
    # Fault-free: every prefill hands off exactly once, nothing voided.
    assert result.control_stats["prefill_completions"] == len(trace)
    assert result.control_stats["kv_transfers"] == len(trace)
    assert result.control_stats["kv_transfers_voided"] == 0
    assert scheme.cluster.total_outstanding() == 0
    for inst in scheme.cluster.instances.values():
        if inst.tracker is not None:
            assert inst.tracker.total_decoding() == 0
            break


def test_pools_partition_the_cluster_and_report_latency_stats():
    trace = make_trace(seed=5)
    _, result = run(trace, GenerativeConfig(disagg=DisaggConfig()),
                    period_s=1)
    ds = result.dispatch_stats
    assert ds["prefill_pool_size"] >= 1
    assert ds["decode_pool_size"] >= 1
    assert ds["prefill_pool_size"] + ds["decode_pool_size"] == 6
    # Per-pool SLO signals: TTFT (prefill+handoff+first step) and TPOT.
    for key in ("ttft_mean_ms", "ttft_p50_ms", "ttft_p98_ms",
                "tpot_mean_ms", "tpot_p50_ms", "tpot_p98_ms"):
        assert ds[key] > 0.0
    assert ds["ttft_p98_ms"] >= ds["ttft_p50_ms"]
    assert ds["tpot_p98_ms"] >= ds["tpot_p50_ms"]


def test_deterministic_rerun_is_byte_identical():
    gen = GenerativeConfig(disagg=DisaggConfig())
    blobs = []
    for _ in range(2):
        trace = make_trace(seed=21)
        _, result = run(trace, gen, period_s=1)
        blobs.append(json.dumps(
            {**result.dispatch_stats, **result.control_stats},
            sort_keys=True,
        ))
    assert blobs[0] == blobs[1]


def chaos_run(seed=11):
    """A decode-pool crash with KV transfers in flight.

    ``transfer_ms_per_token=5.0`` keeps handoffs airborne for hundreds
    of ms, and the rank-0 victim (max outstanding) at t=1.2s is a
    decode instance by construction — decode members hold whole batches
    while prefill members serve one prompt at a time.
    """
    trace = make_trace(seed=seed)
    gen = GenerativeConfig(
        disagg=DisaggConfig(transfer_ms_per_token=5.0)
    )
    plan = FaultPlan(events=(
        FailureEvent(time_ms=1200.0, recovery_ms=700.0, victim_rank=0),
    ))
    scheme = make_scheme(trace)
    result = run_simulation(scheme, trace, SimulationConfig(
        generative=gen, failures=plan, retry=RetryPolicy(),
        observability=ObservabilityConfig(sample_rate=1.0, timeline=True),
    ))
    return trace, result


def test_sampled_spans_narrate_the_prefill_walk(tmp_path):
    trace, result = chaos_run()
    assert len(result.spans) == len(trace)
    assert all(assert_walk_narrated(span) for span in result.spans)
    path = tmp_path / "spans.jsonl"
    written = write_spans_jsonl(path, result.spans)
    assert validate_jsonl(path, load_schema("trace_span")) == written


def test_decode_crash_mid_handoff_conserves_requests():
    trace, result = chaos_run()
    cs = result.control_stats
    # The crash voided in-flight KV transfers; every voided request
    # re-entered through the budgeted retry path, redid prefill, and
    # still completed — with the redone decode work on top.
    assert result.stats.count == len(trace)
    assert cs["failures"] == 1
    assert cs["kv_transfers_voided"] >= 1
    assert cs["retries"] >= 1
    assert cs["decode_steps"] >= trace.total_decode_steps
    # Handoffs: one per successful prefill, voided ones re-dispatched.
    assert cs["kv_transfers"] >= len(trace)
    crash = result.timeline.query(category="fault", kind="crash")
    assert len(crash) == 1 and crash[0].detail["role"] == "decode"


def test_chaos_rerun_is_byte_identical():
    blobs = []
    for _ in range(2):
        _, result = chaos_run()
        blobs.append(json.dumps(
            {**result.dispatch_stats, **result.control_stats},
            sort_keys=True,
        ))
    assert blobs[0] == blobs[1]


def test_rebalancer_flips_roles_under_decode_skew():
    # Decode-skewed scenario: start the partition prefill-heavy (3/4 of
    # a 8-instance cluster) against a decode-hungry trace. The coupled
    # split sees decode occupancy pile up and must migrate prefill
    # instances into the decode pool at period boundaries.
    trace = generate_generative_trace(
        GenerativeTraceConfig(
            rate_per_s=250, duration_ms=seconds(6), pattern="bursty",
            seed=11,
        )
    )
    gen = GenerativeConfig(disagg=DisaggConfig(
        prefill_fraction=0.75, max_flips_per_period=2,
    ))
    scheme = make_scheme(trace, gpus=8, period_s=1)
    result = run_simulation(scheme, trace, SimulationConfig(
        generative=gen,
        observability=ObservabilityConfig(sample_rate=0.0, timeline=True),
    ))
    assert result.stats.count == len(trace)
    assert result.control_stats["pool_flips"] >= 1
    flips = result.timeline.query(category="pool", kind="flip")
    assert len(flips) == result.control_stats["pool_flips"]
    assert any(
        f.detail["from_role"] == "prefill" and f.detail["to_role"] == "decode"
        for f in flips
    )
    # Every flip follows a recorded split decision in the same stream.
    splits = result.timeline.query(category="pool", kind="split")
    assert splits and splits[0].time_ms <= flips[0].time_ms
    # The migration actually moved the standing partition.
    assert result.dispatch_stats["decode_pool_size"] > 2


def test_rebalance_off_freezes_the_partition():
    trace = make_trace(seed=9)
    gen = GenerativeConfig(disagg=DisaggConfig(rebalance=False))
    scheme = make_scheme(trace, period_s=1)
    result = run_simulation(scheme, trace, SimulationConfig(
        generative=gen,
        observability=ObservabilityConfig(sample_rate=0.0, timeline=True),
    ))
    assert result.control_stats["pool_flips"] == 0
    # Splits are still solved and recorded (the signal keeps flowing),
    # only the migration is disabled.
    assert result.timeline.query(category="pool", kind="split")
    assert not result.timeline.query(category="pool", kind="flip")


def test_disagg_vs_colocated_tpot_with_free_transfer():
    # With a free handoff and the same cluster, disaggregation relieves
    # decode batches of prefill fold-ins; experienced TPOT must not
    # regress by more than noise, and token conservation holds on both
    # paths. (TTFT trades the other way: prompts queue on fewer
    # instances. The bench row quantifies both directions.)
    trace = make_trace(seed=13, rate=200)
    _, co = run(trace, GenerativeConfig())
    trace2 = make_trace(seed=13, rate=200)
    _, dis = run(
        trace2,
        GenerativeConfig(disagg=DisaggConfig(transfer_ms_per_token=0.0)),
    )
    assert co.control_stats["decode_steps"] == trace.total_decode_steps
    assert dis.control_stats["decode_steps"] == trace.total_decode_steps
    assert dis.dispatch_stats["tpot_mean_ms"] <= (
        co.dispatch_stats["tpot_mean_ms"] * 1.10
    )


def test_disagg_config_validation():
    with pytest.raises(ConfigurationError):
        DisaggConfig(transfer_ms_per_token=-0.1)
    with pytest.raises(ConfigurationError):
        DisaggConfig(prefill_fraction=0.0)
    with pytest.raises(ConfigurationError):
        DisaggConfig(prefill_fraction=1.0)
    with pytest.raises(ConfigurationError):
        DisaggConfig(max_flips_per_period=-1)
    with pytest.raises(ConfigurationError):
        DisaggConfig(min_decode=0)


def test_generative_config_rejects_untyped_disagg():
    # Used to construct and fail only inside the run.
    with pytest.raises(ConfigurationError, match="DisaggConfig"):
        GenerativeConfig(disagg="yes")


def test_disagg_requires_generative_trace_and_arlo():
    from repro.workload.twitter import TwitterTraceConfig, generate_twitter_trace

    plain = generate_twitter_trace(TwitterTraceConfig(
        rate_per_s=50, duration_ms=seconds(2), seed=1,
    ))
    scheme = make_scheme(make_trace())
    gen = GenerativeConfig(disagg=DisaggConfig())
    with pytest.raises(ConfigurationError):
        run_simulation(scheme, plain, SimulationConfig(generative=gen))
    trace = make_trace()
    st_scheme = build_scheme("st", "bert-base", 6)
    with pytest.raises(ConfigurationError):
        run_simulation(st_scheme, trace, SimulationConfig(generative=gen))


def test_too_few_instances_for_both_pools_is_rejected():
    trace = make_trace(rate=50, duration_s=3)
    scheme = build_scheme(
        "arlo", "bert-base", 1,
        trace_hint=trace.slice_time(0, seconds(1)),
    )
    gen = GenerativeConfig(disagg=DisaggConfig())
    with pytest.raises(ConfigurationError):
        run_simulation(scheme, trace, SimulationConfig(generative=gen))


def test_experiment_spec_routes_disagg():
    from repro.experiments.runner import ExperimentSpec

    spec = ExperimentSpec(
        name="disagg-route", model="bert-base", num_gpus=6,
        rate_per_s=150, duration_s=4, hint_s=1.0, schemes=("arlo",),
        generative=True, disagg=True, transfer_ms_per_token=0.1,
        prefill_fraction=0.6,
    )
    cfg = spec.sim_config()
    assert isinstance(cfg.generative.disagg, DisaggConfig)
    assert cfg.generative.disagg.transfer_ms_per_token == 0.1
    assert cfg.generative.disagg.prefill_fraction == 0.6


def test_experiment_spec_validates_generative_knobs():
    from repro.experiments.runner import ExperimentSpec

    base = dict(name="x", model="bert-base", num_gpus=4, rate_per_s=100,
                duration_s=4, hint_s=1.0, generative=True)
    with pytest.raises(ConfigurationError):
        ExperimentSpec(**base, chunk_steps=0)
    with pytest.raises(ConfigurationError):
        ExperimentSpec(**base, max_batch=0)
    with pytest.raises(ConfigurationError):
        ExperimentSpec(**base, decode_median=0)
    with pytest.raises(ConfigurationError):
        ExperimentSpec(**base, decode_median=128, decode_p98=64)
    with pytest.raises(ConfigurationError):
        ExperimentSpec(**base, disagg=True, transfer_ms_per_token=-1.0)
    with pytest.raises(ConfigurationError):
        ExperimentSpec(**base, disagg=True, prefill_fraction=1.5)
    with pytest.raises(ConfigurationError):
        ExperimentSpec(name="x", model="bert-base", num_gpus=4,
                       rate_per_s=100, duration_s=4, hint_s=1.0,
                       disagg=True)  # disagg without generative
