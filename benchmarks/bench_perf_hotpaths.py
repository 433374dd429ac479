"""Perf-regression harness for the control-plane hot paths.

Times the three paths this repo's fast control plane optimises:

1. **Solve latency** — ``RuntimeScheduler.step`` on the Table 2
   workload (50 GPUs × 8 runtimes), measured cold (no cache, no warm
   start), warm-started (previous period's allocation seeds the solver
   bounds) and cached (exact memoized hit, no solve at all); plus a
   tie-heavy light-demand case shaped like the benchmark's co-located
   generative workload (64 GPUs, ~27 requests per SLO window), cold and
   warm;
2. **Dispatch** — Algorithm 1 ``dispatch`` + completion on a populated
   multi-level queue, reported as ns/request;
3. **Event-loop simulation** — a small Arlo serving experiment timed
   over ``run_simulation`` only (setup excluded), reported as
   simulator events/second;
4. **Simulation at scale** — one sustained ≥1M-request run (100k in
   ``--quick``), same events/second basis;
5. **Spatial sharding at scale** — the same ≥1M-request workload split
   into ≥4 request-partition space shards, each an independent event
   loop; the gated metric divides total events by the *slowest shard's*
   ``run_simulation`` wall (the data plane's parallel capacity — what
   the wall clock delivers once each shard owns a core).
6. **Anytime control plane** — a 1000-GPU, 1 s-period scheduler loop
   over drifting demand with a 50 ms solve deadline and the demand
   forecaster pre-solving period boundaries; gates the deadline-hit
   rate (must stay 1.0), p99 solve latency, and the forecast-driven
   boundary cache-hit rate.

Run directly to (re)generate the committed ``BENCH_perf.json``::

    PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py --quick

or gate a change against a committed baseline (CI does this)::

    PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py --quick \
        --baseline BENCH_perf.json --max-regression 0.25

``--workers N`` re-points the spatial scale benchmark at a different
shard count, and ``--profile [N]`` prints a per-section cProfile top-N (by total time)
instead of gating — a profiling aid, not a measurement mode.

The pytest entry points (``-m perf``) assert the acceptance criterion:
warm+cached scheduler steps at least 3× faster than cold.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import json
import math
import os
import pathlib
import platform
import pstats
import sys
import time

import numpy as np
import pytest

from repro.baselines.allocators import even_allocation
from repro.cluster.state import ClusterState
from repro.core.bins import LengthBins
from repro.core.demand import DemandEstimator
from repro.core.mlq import MultiLevelQueue
from repro.core.request_scheduler import ArloRequestScheduler
from repro.core.runtime_scheduler import RuntimeScheduler, RuntimeSchedulerConfig
from repro.experiments.runner import ExperimentSpec
from repro.obs.spans import ObservabilityConfig
from repro.sim.sharded import run_spatial
from repro.sim.simulation import run_simulation
from repro.runtimes.models import get_model
from repro.runtimes.registry import build_polymorph_set
from repro.runtimes.staircase import polymorph_lengths_for_count
from repro.units import SECOND

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_perf.json"

#: Table 2 first row: the paper's smallest reported ILP instance.
TABLE2_GPUS = 50
TABLE2_RUNTIMES = 8

#: Light-demand solve: the co-located generative operating point, where
#: demand sits far below one instance's capacity and DP labels tie.
LIGHT_GPUS = 64
LIGHT_REQUESTS_PER_WINDOW = 27.0

#: Acceptance criterion: warm+cached step vs cold step.
SPEEDUP_FLOOR = 3.0


# ---------------------------------------------------------------------------
# Workload construction
# ---------------------------------------------------------------------------

def _build_scheduler(
    enable_cache: bool,
    warm_start: bool,
    num_gpus: int = TABLE2_GPUS,
    num_runtimes: int = TABLE2_RUNTIMES,
    seed: int = 5,
    requests_per_window: float | None = None,
) -> tuple[RuntimeScheduler, ClusterState, float]:
    """A Runtime Scheduler over the Table 2 workload, demand pre-filled.

    Mirrors ``repro.experiments.figures.table2_problem``: bert-large
    polymorphs, log-normally spread demand at ~60 % utilisation — but
    routed through a real ``DemandEstimator`` so ``step`` exercises the
    same estimate → problem → solve pipeline production uses.
    ``requests_per_window`` replaces the 60 % load with a fixed total
    demand per SLO window.
    """
    model = get_model("bert-large")
    registry = build_polymorph_set(
        model,
        max_lengths=polymorph_lengths_for_count(model.max_length, num_runtimes),
    )
    config = RuntimeSchedulerConfig(
        period_ms=20 * SECOND,
        enable_cache=enable_cache,
        warm_start=warm_start,
    )
    estimator = DemandEstimator(
        bins=LengthBins.from_registry(registry),
        slo_ms=model.slo_ms,
        window_ms=config.period_ms,
    )
    now_ms = config.period_ms
    rng = np.random.default_rng(seed)
    caps = np.array([p.capacity for p in registry], dtype=float)
    weights = rng.lognormal(0.0, 0.8, size=num_runtimes)
    weights /= weights.sum()
    # Arrivals per bin over the window matching ~60 % utilisation.
    if requests_per_window is None:
        requests_per_window = 0.6 * num_gpus * caps.mean()
    per_window = weights * requests_per_window
    arrivals_per_bin = np.maximum(
        1, (per_window * (config.period_ms / model.slo_ms)).astype(int)
    )
    times, lengths = [], []
    for b, count in enumerate(arrivals_per_bin):
        times.append(rng.uniform(0.0, now_ms, size=count))
        lengths.append(np.full(count, registry[b].max_length, dtype=np.int64))
    order = np.argsort(np.concatenate(times), kind="stable")
    estimator.observe_batch(
        np.concatenate(times)[order], np.concatenate(lengths)[order]
    )
    cluster = ClusterState.bootstrap(
        registry, even_allocation(num_runtimes, num_gpus)
    )
    scheduler = RuntimeScheduler(
        registry=registry, estimator=estimator, config=config
    )
    return scheduler, cluster, now_ms


def _time_best_of(fn, repeats: int) -> float:
    """Best-of-N wall time in seconds (min is the low-noise estimator)."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------

def bench_solve(repeats: int = 5) -> dict:
    """Cold vs warm-started vs cached ``RuntimeScheduler.step``."""
    # Cold: every step runs the full solve from scratch.
    cold_sched, cold_cluster, now = _build_scheduler(
        enable_cache=False, warm_start=False
    )
    cold_s = _time_best_of(lambda: cold_sched.step(now, cold_cluster), repeats)
    cold_result, _ = cold_sched.step(now, cold_cluster)

    # Warm: the previous period's allocation seeds the solver's bounds.
    warm_sched, warm_cluster, now = _build_scheduler(
        enable_cache=False, warm_start=True
    )
    warm_sched.step(now, warm_cluster)  # seed history
    warm_s = _time_best_of(lambda: warm_sched.step(now, warm_cluster), repeats)
    warm_result, _ = warm_sched.step(now, warm_cluster)

    # Cached: identical demand at the same instant → exact memoized hit.
    # A hit costs ~0.1 ms, small enough that scheduler jitter dominates a
    # single timing — take many more repeats to keep the gated metric
    # stable across runs (still sub-second total).
    cached_sched, cached_cluster, now = _build_scheduler(
        enable_cache=True, warm_start=True
    )
    cached_sched.step(now, cached_cluster)  # miss + store
    cached_s = _time_best_of(
        lambda: cached_sched.step(now, cached_cluster), max(repeats * 20, 50)
    )
    cached_result, _ = cached_sched.step(now, cached_cluster)

    # Light demand: the max(B, 1) batch clamp makes most DP labels tie
    # exactly, a regime the Table 2 load above never reaches.
    light = dict(num_gpus=LIGHT_GPUS,
                 requests_per_window=LIGHT_REQUESTS_PER_WINDOW)
    light_cold, light_cold_cluster, now = _build_scheduler(
        enable_cache=False, warm_start=False, **light
    )
    light_cold_s = _time_best_of(
        lambda: light_cold.step(now, light_cold_cluster), repeats
    )
    light_warm, light_warm_cluster, now = _build_scheduler(
        enable_cache=False, warm_start=True, **light
    )
    light_warm.step(now, light_warm_cluster)  # seed history
    light_warm_s = _time_best_of(
        lambda: light_warm.step(now, light_warm_cluster), repeats
    )
    light_cold_result, _ = light_cold.step(now, light_cold_cluster)
    light_warm_result, _ = light_warm.step(now, light_warm_cluster)

    assert abs(cold_result.objective - warm_result.objective) < 1e-6
    assert abs(cold_result.objective - cached_result.objective) < 1e-6
    assert light_cold_result.objective == light_warm_result.objective
    assert cached_result.stats.get("cache_hit"), "expected an exact cache hit"
    return {
        "workload": f"table2({TABLE2_GPUS} gpus, {TABLE2_RUNTIMES} runtimes)",
        "solver": cold_result.solver,
        "cold_ms": cold_s * 1e3,
        "warm_ms": warm_s * 1e3,
        "cached_ms": cached_s * 1e3,
        "warm_speedup": cold_s / warm_s,
        "cached_speedup": cold_s / cached_s,
        "warm_started": bool(warm_result.stats.get("warm_started")),
        "cache": cached_sched.cache_stats(),
        "light_workload": (
            f"light({LIGHT_GPUS} gpus, {TABLE2_RUNTIMES} runtimes, "
            f"~{LIGHT_REQUESTS_PER_WINDOW:g} requests/window)"
        ),
        "light_cold_ms": light_cold_s * 1e3,
        "light_warm_ms": light_warm_s * 1e3,
    }


def bench_dispatch(
    num_requests: int = 20_000, seed: int = 7, passes: int = 5
) -> dict:
    """Algorithm 1 dispatch + completion on a populated MLQ, ns/request.

    Timed as best-of-``passes`` over the same request stream: a single
    pass is short enough (a few ms) that scheduler jitter swings it by
    30%+, which would flap the CI regression gate.
    """
    model = get_model("bert-large")
    registry = build_polymorph_set(
        model,
        max_lengths=polymorph_lengths_for_count(
            model.max_length, TABLE2_RUNTIMES
        ),
    )
    cluster = ClusterState.bootstrap(
        registry, even_allocation(TABLE2_RUNTIMES, TABLE2_GPUS)
    )
    mlq = MultiLevelQueue.from_cluster(cluster)
    scheduler = ArloRequestScheduler(registry=registry, mlq=mlq)
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, model.max_length + 1, size=num_requests)
    # Steady state: each dispatched request completes before the next
    # arrives, so the heaps stay warm without unbounded queue growth.
    warmup = min(1000, num_requests // 10)
    for length in lengths[:warmup]:
        decision, _, _ = scheduler.dispatch(0.0, int(length))
        decision.instance.complete()
        mlq.refresh(decision.instance)
    timed = num_requests - warmup
    elapsed = math.inf
    for _ in range(passes):
        t0 = time.perf_counter()
        for length in lengths[warmup:]:
            decision, _, _ = scheduler.dispatch(0.0, int(length))
            decision.instance.complete()
            mlq.refresh(decision.instance)
        elapsed = min(elapsed, time.perf_counter() - t0)
    return {
        "requests": timed,
        "passes": passes,
        "ns_per_request": elapsed / timed * 1e9,
        "requests_per_s": timed / elapsed,
        "stats": scheduler.stats(),
    }


def bench_simulation(
    duration_s: float = 20.0,
    rate_per_s: float = 200.0,
    passes: int = 3,
    observability: "ObservabilityConfig | None" = None,
) -> dict:
    """Event-loop simulation throughput (events/second).

    Measurement basis: ``run_simulation`` only — the trace is generated
    once and the scheme is rebuilt *outside* the timed region each pass
    (the run mutates it), so the number gates the data plane rather
    than trace generation or the allocation solve. Setup cost is
    reported separately. Best-of-``passes`` because a single ~20 ms
    loop swings 30 %+ under scheduler jitter.

    ``observability`` attaches an :class:`ObservabilityConfig` to the
    run — the ``simulation_tracing_off`` variant uses it to gate the
    disabled-tracing overhead contract.
    """
    spec = ExperimentSpec(
        name="perf-e2e",
        model="bert-large",
        num_gpus=8,
        rate_per_s=rate_per_s,
        duration_s=duration_s,
        schemes=("arlo",),
        scheduler_period_s=5.0,
    )
    trace = spec.make_trace()
    best = math.inf
    setup_best = math.inf
    events = 0
    for _ in range(passes):
        t0 = time.perf_counter()
        scheme = spec.make_scheme("arlo", trace)
        config = spec.sim_config()
        if observability is not None:
            config = dataclasses.replace(config, observability=observability)
        t1 = time.perf_counter()
        result = run_simulation(scheme, trace, config)
        t2 = time.perf_counter()
        setup_best = min(setup_best, t1 - t0)
        best = min(best, t2 - t1)
        events = result.events_processed
    return {
        "basis": "run_simulation only, scheme rebuilt per pass, "
                 f"best of {passes}",
        "sim_duration_s": duration_s,
        "rate_per_s": rate_per_s,
        "events": events,
        "wall_s": best,
        "setup_ms": setup_best * 1e3,
        "events_per_s": events / best,
    }


def _scale_spec(num_requests: int) -> ExperimentSpec:
    """The ≥1M-request scale workload shared by the serial and spatial
    scale benchmarks: perf-e2e scaled to hold per-GPU load constant,
    scheduler period stretched so the control plane fires a handful of
    times rather than dominating the run."""
    rate_per_s = 2_000.0
    duration_s = num_requests / rate_per_s
    return ExperimentSpec(
        name="perf-scale",
        model="bert-large",
        num_gpus=80,
        rate_per_s=rate_per_s,
        duration_s=duration_s,
        schemes=("arlo",),
        scheduler_period_s=max(duration_s / 8.0, 5.0),
    )


def bench_simulation_scale(num_requests: int = 1_000_000) -> dict:
    """Sustained throughput at scale: a single ≥1M-request serving run.

    One pass (the loop is seconds long, so best-of-N buys little), same
    ``run_simulation``-only basis as :func:`bench_simulation`.
    """
    spec = _scale_spec(num_requests)
    t0 = time.perf_counter()
    trace = spec.make_trace()
    scheme = spec.make_scheme("arlo", trace)
    config = spec.sim_config()
    t1 = time.perf_counter()
    result = run_simulation(scheme, trace, config)
    elapsed = time.perf_counter() - t1
    return {
        "basis": "run_simulation only, single pass",
        "requests": len(trace),
        "completed": result.stats.count,
        "sim_duration_s": spec.duration_s,
        "rate_per_s": spec.rate_per_s,
        "events": result.events_processed,
        "wall_s": elapsed,
        "setup_s": t1 - t0,
        "events_per_s": result.events_processed / elapsed,
    }


def bench_simulation_scale_spatial(
    num_requests: int = 1_000_000,
    workers: int = 4,
    passes: int = 2,
) -> dict:
    """Scale workload as ``workers`` request-partition space shards.

    Each shard is an independent event loop over ``1/workers`` of the
    arrivals and GPUs. The gated metric is total events divided by the
    **slowest shard's** ``run_simulation`` wall — the throughput the
    sharded data plane delivers once each shard owns a core, measured
    without pool contention. On machines with fewer cores than shards
    the shards run sequentially inline (a process pool would just
    time-slice one core and bill the contention to the shard walls);
    with enough cores they run in the :func:`run_experiments` pool.
    ``wall_total_s`` records the actual end-to-end wall either way.

    Best-of-``passes`` on the max shard wall: the max of N single-pass
    walls is biased upward by scheduler jitter (one GC pause in one
    shard poisons the whole metric), so the pass with the smallest
    slowest-shard wall is the low-noise estimator — same reasoning as
    ``_time_best_of``.
    """
    spec = _scale_spec(num_requests)
    cpu_count = os.cpu_count() or 1
    pool_workers = workers if cpu_count >= workers else 1
    if pool_workers == 1:
        print(
            f"WARNING: only {cpu_count} cores for {workers} shards — "
            "spatial shards run sequentially inline; events/s is NOT "
            "comparable to a multi-core pool run (the baseline gate "
            "skips this metric when execution modes differ)",
            file=sys.stderr,
        )
    t0 = time.perf_counter()
    merged = None
    for _ in range(passes):
        candidate = run_spatial(spec, "arlo", workers, workers=pool_workers)
        if merged is None or (
            max(candidate.shard_walls) < max(merged.shard_walls)
        ):
            merged = candidate
    wall_total = time.perf_counter() - t0
    max_wall = max(merged.shard_walls)
    return {
        "basis": "total events / max per-shard run_simulation wall, "
                 f"best of {passes} passes (per-shard walls measured "
                 "inside the shard runs; assumes one core per shard)",
        "passes": passes,
        "space_partition": spec.space_partition,
        "shards": workers,
        "cpu_count": cpu_count,
        "execution": "pool" if pool_workers > 1 else "sequential-inline",
        "requests": num_requests,
        "completed": merged.stats.count,
        "events": merged.events_processed,
        "shard_walls_s": merged.shard_walls,
        "max_shard_wall_s": max_wall,
        "wall_total_s": wall_total,
        "events_per_s": merged.events_processed / max_wall,
    }


def bench_generative(
    num_requests: int = 100_000,
    rate_per_s: float = 1_000.0,
    num_gpus: int = 64,
    passes: int = 2,
) -> dict:
    """Generative data plane throughput: prefill + continuous-batched
    decode, reported as simulator events/second.

    Same ``run_simulation``-only basis as :func:`bench_simulation`
    (trace generated once, scheme rebuilt outside the timed region).
    The event count includes ``DECODE_STEP`` events, so the metric
    gates the decode loop's step coalescing and ``DecodeTask`` pooling
    — a regression in either shows up directly as fewer events/s.
    """
    spec = ExperimentSpec(
        name="perf-generative",
        model="bert-large",
        num_gpus=num_gpus,
        rate_per_s=rate_per_s,
        duration_s=num_requests / rate_per_s,
        schemes=("arlo",),
        scheduler_period_s=max(num_requests / rate_per_s / 8.0, 5.0),
        generative=True,
    )
    trace = spec.make_trace()
    best = math.inf
    result = None
    for _ in range(passes):
        scheme = spec.make_scheme("arlo", trace)
        config = spec.sim_config()
        t0 = time.perf_counter()
        candidate = run_simulation(scheme, trace, config)
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best, result = elapsed, candidate
    return {
        "basis": "run_simulation only, scheme rebuilt per pass, "
                 f"best of {passes}",
        "requests": len(trace),
        "completed": result.stats.count,
        "num_gpus": num_gpus,
        "rate_per_s": rate_per_s,
        "decode_steps": result.control_stats["decode_steps"],
        "step_events": result.control_stats["step_events"],
        "batch_joins": result.control_stats["batch_joins"],
        "ttft_p98_ms": result.dispatch_stats.get("ttft_p98_ms"),
        "events": result.events_processed,
        "wall_s": best,
        "events_per_s": result.events_processed / best,
        "decode_steps_per_s": (
            result.control_stats["decode_steps"] / best
        ),
    }


def bench_disagg(
    num_requests: int = 100_000,
    rate_per_s: float = 1_000.0,
    num_gpus: int = 64,
    passes: int = 2,
) -> dict:
    """Disaggregated prefill/decode pools vs the co-located loop.

    The same generative workload runs twice on the same cluster size:
    once co-located (decode instances fold prefills into their next
    step) and once disaggregated (prefill pool → KV transfer → decode
    pool, with adaptive rebalancing). The gated metric is the disagg
    run's events/s — it covers PREFILL_DONE and KV_TRANSFER handling,
    the second Algorithm-1 scheduler, and the per-period split solve.
    The comparison block is the paper-facing artifact: TTFT vs TPOT
    across the two architectures on an identical token budget.
    """
    spec_kwargs = dict(
        model="bert-large",
        num_gpus=num_gpus,
        rate_per_s=rate_per_s,
        duration_s=num_requests / rate_per_s,
        schemes=("arlo",),
        scheduler_period_s=max(num_requests / rate_per_s / 8.0, 5.0),
        generative=True,
    )
    colocated = ExperimentSpec(name="perf-disagg-colocated", **spec_kwargs)
    disagg = ExperimentSpec(name="perf-disagg", disagg=True, **spec_kwargs)
    trace = colocated.make_trace()

    def best_of(spec):
        best = math.inf
        result = None
        for _ in range(passes):
            scheme = spec.make_scheme("arlo", trace)
            config = spec.sim_config()
            t0 = time.perf_counter()
            candidate = run_simulation(scheme, trace, config)
            elapsed = time.perf_counter() - t0
            if elapsed < best:
                best, result = elapsed, candidate
        return best, result

    co_wall, co = best_of(colocated)
    dis_wall, dis = best_of(disagg)
    return {
        "basis": "run_simulation only, scheme rebuilt per pass, "
                 f"best of {passes}; same trace both architectures",
        "requests": len(trace),
        "completed": dis.stats.count,
        "num_gpus": num_gpus,
        "rate_per_s": rate_per_s,
        "decode_steps": dis.control_stats["decode_steps"],
        "kv_transfers": dis.control_stats["kv_transfers"],
        "pool_flips": dis.control_stats["pool_flips"],
        "events": dis.events_processed,
        "wall_s": dis_wall,
        "events_per_s": dis.events_processed / dis_wall,
        "comparison": {
            "colocated": {
                "wall_s": co_wall,
                "events_per_s": co.events_processed / co_wall,
                "ttft_p98_ms": co.dispatch_stats.get("ttft_p98_ms"),
                "ttft_mean_ms": co.dispatch_stats.get("ttft_mean_ms"),
                "tpot_mean_ms": co.dispatch_stats.get("tpot_mean_ms"),
                "tpot_p98_ms": co.dispatch_stats.get("tpot_p98_ms"),
            },
            "disagg": {
                "wall_s": dis_wall,
                "events_per_s": dis.events_processed / dis_wall,
                "ttft_p98_ms": dis.dispatch_stats.get("ttft_p98_ms"),
                "ttft_mean_ms": dis.dispatch_stats.get("ttft_mean_ms"),
                "tpot_mean_ms": dis.dispatch_stats.get("tpot_mean_ms"),
                "tpot_p98_ms": dis.dispatch_stats.get("tpot_p98_ms"),
                "prefill_pool": dis.dispatch_stats.get("prefill_pool_size"),
                "decode_pool": dis.dispatch_stats.get("decode_pool_size"),
            },
        },
    }


def bench_control_anytime(
    periods: int = 120,
    num_gpus: int = 1000,
    num_runtimes: int = 8,
    deadline_ms: float = 50.0,
    rate_per_s: float = 2_000.0,
    seed: int = 11,
) -> dict:
    """Deadline-bounded solver ladder + forecast pre-solve at scale.

    A 1000-GPU Runtime Scheduler stepped through ``periods`` 1 s
    decision periods of *drifting* demand: the per-runtime traffic mix
    follows an AR(1) random walk in log-space, so consecutive periods
    are similar but never identical — exact cache hits are rare and
    the forecaster + tolerance lookup have to earn the boundary hits.
    ``cache_tolerance`` is 0.04 here (vs the 0.02 default): at bench
    drift levels the realized demand lands within 4 % relative L1 of
    the forecast essentially always, and the entry is re-checked for
    feasibility and re-scored on the live problem either way.

    Gated metrics: p99/max wall-clock per-period decide latency, the
    deadline-hit rate (acceptance: 1.0 — a feasible allocation within
    the deadline on *every* period), and the period-boundary cache-hit
    rate with forecasting on (acceptance: ≥ 0.7).
    """
    model = get_model("bert-large")
    registry = build_polymorph_set(
        model,
        max_lengths=polymorph_lengths_for_count(model.max_length, num_runtimes),
    )
    period_ms = 1 * SECOND
    config = RuntimeSchedulerConfig(
        period_ms=period_ms,
        enable_cache=True,
        warm_start=True,
        solver_ladder=True,
        solve_deadline_ms=deadline_ms,
        cache_tolerance=0.04,
        forecast=True,
        # Demand follows a random walk here, where heavier smoothing
        # only adds lag — a high alpha tracks the level with one-step
        # error close to the innovation size.
        forecast_alpha=0.7,
    )
    estimator = DemandEstimator(
        bins=LengthBins.from_registry(registry),
        slo_ms=model.slo_ms,
        window_ms=period_ms,
    )
    scheduler = RuntimeScheduler(
        registry=registry, estimator=estimator, config=config
    )
    cluster = ClusterState.bootstrap(
        registry, even_allocation(num_runtimes, num_gpus)
    )
    rng = np.random.default_rng(seed)
    # AR(1) drift on the log of the per-runtime mix: smooth but
    # persistent distribution shift, Twitter-diurnal in miniature.
    log_mix = rng.normal(0.0, 0.8, size=num_runtimes)
    per_period = rate_per_s * (period_ms / SECOND)
    max_lengths = np.array([p.max_length for p in registry], dtype=np.int64)
    t0 = time.perf_counter()
    for k in range(periods):
        log_mix = 0.97 * log_mix + rng.normal(0.0, 0.03, size=num_runtimes)
        mix = np.exp(log_mix)
        mix /= mix.sum()
        counts = np.maximum(1, (mix * per_period).astype(int))
        now_ms = (k + 1) * period_ms
        times, lengths = [], []
        for b, count in enumerate(counts):
            times.append(rng.uniform(now_ms - period_ms, now_ms, size=count))
            lengths.append(np.full(count, max_lengths[b], dtype=np.int64))
        order = np.argsort(np.concatenate(times), kind="stable")
        estimator.observe_batch(
            np.concatenate(times)[order], np.concatenate(lengths)[order]
        )
        result, _ = scheduler.step(now_ms, cluster)
        assert result.allocation.sum() == num_gpus
    wall_s = time.perf_counter() - t0
    stats = scheduler.anytime_stats()
    history = np.asarray(scheduler.solve_ms_history, dtype=np.float64)
    return {
        "workload": f"{num_gpus} gpus, {num_runtimes} runtimes, "
                    f"{periods} x {period_ms / SECOND:.0f}s periods, "
                    f"drifting mix @ {rate_per_s:.0f} req/s",
        "deadline_ms": deadline_ms,
        "cache_tolerance": config.cache_tolerance,
        "periods": stats["periods"],
        "solve_p99_ms": float(np.percentile(history, 99)),
        "solve_max_ms": float(history.max()),
        "solve_mean_ms": float(history.mean()),
        "deadline_hit_rate": stats["deadline_hit_rate"],
        "boundary_hit_rate": stats["boundary_hit_rate"],
        "exact_hits": stats["boundary_exact_hits"],
        "approx_hits": stats["boundary_approx_hits"],
        "forecast_hits": stats["boundary_forecast_hits"],
        "solves": stats["solves"],
        "presolves": stats["presolves"],
        "presolve_covered": stats["presolve_covered"],
        "forecast_mean_rel_error": stats["forecast"]["mean_rel_error"],
        "wall_s": wall_s,
    }


def _profiled(label: str, fn, top: int):
    """Run ``fn`` under cProfile, print its top-``top`` rows, return
    the result. ``top == 0`` runs ``fn`` plain (the measurement mode —
    profiling overhead would poison every timed number)."""
    if not top:
        return fn()
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    print(f"\n=== profile: {label} (top {top} by total time) ===")
    pstats.Stats(profiler).sort_stats("tottime").print_stats(top)
    return result


def run_benchmarks(
    quick: bool = False,
    workers: int = 4,
    profile_top: int = 0,
) -> dict:
    """All hot-path benchmarks as one JSON-ready payload."""
    scale_requests = 100_000 if quick else 1_000_000
    payload = {
        "schema": "bench_perf/1",
        "quick": quick,
        "python": platform.python_version(),
        "solve": _profiled(
            "solve", lambda: bench_solve(repeats=3 if quick else 7),
            profile_top,
        ),
        "dispatch": _profiled(
            "dispatch",
            lambda: bench_dispatch(num_requests=5_000 if quick else 20_000),
            profile_top,
        ),
        "simulation": _profiled(
            "simulation",
            lambda: bench_simulation(
                duration_s=8.0 if quick else 20.0,
                rate_per_s=150.0 if quick else 200.0,
                passes=3 if quick else 6,
            ),
            profile_top,
        ),
        # Same workload with an ObservabilityConfig attached but span
        # sampling off — gates the "near-zero overhead when disabled"
        # contract of the tracing layer (5% tolerance, not the default).
        "simulation_tracing_off": _profiled(
            "simulation_tracing_off",
            lambda: bench_simulation(
                duration_s=8.0 if quick else 20.0,
                rate_per_s=150.0 if quick else 200.0,
                passes=3 if quick else 6,
                observability=ObservabilityConfig(
                    sample_rate=0.0, timeline=False
                ),
            ),
            profile_top,
        ),
        "simulation_scale": _profiled(
            "simulation_scale",
            lambda: bench_simulation_scale(num_requests=scale_requests),
            profile_top,
        ),
        "simulation_scale_spatial": _profiled(
            "simulation_scale_spatial",
            lambda: bench_simulation_scale_spatial(
                num_requests=scale_requests,
                workers=workers,
            ),
            profile_top,
        ),
        "generative": _profiled(
            "generative",
            lambda: bench_generative(
                num_requests=20_000 if quick else 100_000,
            ),
            profile_top,
        ),
        "disagg": _profiled(
            "disagg",
            lambda: bench_disagg(
                num_requests=20_000 if quick else 100_000,
            ),
            profile_top,
        ),
        "control_anytime": _profiled(
            "control_anytime",
            lambda: bench_control_anytime(periods=60 if quick else 120),
            profile_top,
        ),
    }
    # Disabled-tracing overhead, same machine and workload (>1 means
    # the observability plumbing slowed the plain event loop down).
    payload["simulation_tracing_off"]["overhead_vs_plain"] = (
        payload["simulation"]["events_per_s"]
        / payload["simulation_tracing_off"]["events_per_s"]
    )
    return payload


# ---------------------------------------------------------------------------
# Regression gate
# ---------------------------------------------------------------------------

#: (json path, direction, tolerance) — 'lower' means lower-is-better;
#: tolerance None inherits the CLI ``--max-regression`` value, a float
#: pins the metric to its own (tighter) budget regardless of the CLI.
_GATED_METRICS = (
    (("solve", "cold_ms"), "lower", None),
    (("solve", "cached_ms"), "lower", None),
    # Tie-heavy DP solve at the co-located generative operating point.
    (("solve", "light_cold_ms"), "lower", None),
    (("solve", "light_warm_ms"), "lower", None),
    (("dispatch", "ns_per_request"), "lower", None),
    (("simulation", "events_per_s"), "higher", None),
    (("simulation_tracing_off", "events_per_s"), "higher", None),
    # Observability contract: the disabled-tracing overhead ratio
    # (plain events/s over tracing-off events/s, measured in the same
    # run so machine speed cancels) may not regress beyond 5% vs the
    # committed baseline.
    (("simulation_tracing_off", "overhead_vs_plain"), "lower", 0.05),
    (("simulation_scale", "events_per_s"), "higher", None),
    (("simulation_scale_spatial", "events_per_s"), "higher", None),
    # Generative data plane: prefill + continuous-batched decode. The
    # event count includes DECODE_STEP events, so step coalescing and
    # DecodeTask pooling regressions both surface here.
    (("generative", "events_per_s"), "higher", None),
    # Disaggregated pools: PREFILL_DONE/KV_TRANSFER handling, the
    # second Algorithm-1 scheduler, and the per-period split solve.
    (("disagg", "events_per_s"), "higher", None),
    # p99 decide latency is a coarse canary, not the guarantee: most
    # boundaries are sub-ms cache hits, so the p99 lands on one of a
    # handful of real solves (3-6 ms, run-to-run jitter near 2x). The
    # wide tolerance still catches a drift toward the 50 ms deadline;
    # the zero-tolerance deadline_hit_rate below is the hard contract.
    (("control_anytime", "solve_p99_ms"), "lower", 2.0),
    # Hard acceptance: a feasible allocation within the deadline on
    # EVERY period — no tolerance, any miss vs a 1.0 baseline fails.
    (("control_anytime", "deadline_hit_rate"), "higher", 0.0),
    (("control_anytime", "boundary_hit_rate"), "higher", None),
)


def _dig(payload: dict, path: tuple[str, ...]) -> float | None:
    node = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node)


def _dig_str(payload: dict, path: tuple[str, ...]) -> str | None:
    node = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return str(node)


def compare_to_baseline(
    current: dict, baseline: dict, max_regression: float
) -> list[str]:
    """Regressions beyond tolerance, as human-readable failure lines.

    A metric regresses when it is worse than the committed baseline by
    more than ``max_regression`` (fractional — 0.25 means 25 %).
    Metrics absent from either side are skipped (schema evolution must
    not hard-fail the gate), and so are the spatial-sharding metrics
    when the two runs used different execution modes. Every skipped
    gate prints one ``skipped <metric>: <reason>`` line, so a gate that
    never runs is visible in the log.
    """
    failures = []
    cur_exec = _dig_str(current, ("simulation_scale_spatial", "execution"))
    base_exec = _dig_str(baseline, ("simulation_scale_spatial", "execution"))
    for path, direction, tolerance in _GATED_METRICS:
        name = ".".join(path)
        if path[0] == "simulation_scale_spatial" and cur_exec != base_exec:
            # Pool (one core per shard) and sequential-inline (one core
            # total) walls measure different things; comparing them
            # would flag a phantom 4x regression on a smaller machine.
            print(f"skipped {name}: execution {cur_exec} differs from "
                  f"the baseline's {base_exec}")
            continue
        cur, base = _dig(current, path), _dig(baseline, path)
        if cur is None or base is None:
            side = ("baseline" if cur is not None
                    else "current run" if base is not None
                    else "current run and the baseline")
            print(f"skipped {name}: missing in the {side}")
            continue
        if base <= 0:
            print(f"skipped {name}: baseline value {base:.4g} is not "
                  f"positive")
            continue
        allowed = max_regression if tolerance is None else tolerance
        ratio = cur / base if direction == "lower" else base / cur
        if ratio > 1.0 + allowed:
            failures.append(
                f"{name}: {cur:.4g} vs baseline {base:.4g} "
                f"({(ratio - 1.0) * 100:.1f}% worse, "
                f"tolerance {allowed * 100:.0f}%)"
            )
    return failures


# ---------------------------------------------------------------------------
# pytest entry points (-m perf)
# ---------------------------------------------------------------------------

@pytest.mark.perf
def test_warm_cached_step_speedup():
    """Acceptance: warm+cached step ≥3× faster than cold (Table 2)."""
    solve = bench_solve(repeats=3)
    assert solve["cached_speedup"] >= SPEEDUP_FLOOR, solve
    # Warm starts must never slow the solve down materially even when
    # they fail to help (feasibility validation is cheap).
    assert solve["warm_ms"] <= solve["cold_ms"] * 1.5, solve


@pytest.mark.perf
def test_tracing_disabled_overhead():
    """Acceptance: tracing constructed-but-disabled costs ≤5 % events/s
    vs the plain loop, measured back-to-back on this machine."""
    plain = bench_simulation(duration_s=8.0, rate_per_s=150.0, passes=4)
    off = bench_simulation(
        duration_s=8.0, rate_per_s=150.0, passes=4,
        observability=ObservabilityConfig(sample_rate=0.0, timeline=False),
    )
    overhead = plain["events_per_s"] / off["events_per_s"]
    assert overhead <= 1.05, (
        f"tracing-disabled run {overhead:.3f}x slower than plain "
        f"({off['events_per_s']:.0f} vs {plain['events_per_s']:.0f} ev/s)"
    )


@pytest.mark.perf
def test_anytime_deadline_and_boundary_hits():
    """Acceptance: 1000-GPU / 1 s-period ladder holds a feasible
    allocation within the 50 ms deadline on EVERY period, and the
    forecaster covers ≥70 % of period boundaries from cache."""
    result = bench_control_anytime(periods=60)
    assert result["deadline_hit_rate"] == 1.0, result
    assert result["boundary_hit_rate"] >= 0.7, result


@pytest.mark.perf
def test_cached_solve_objective_matches_cold():
    solve = bench_solve(repeats=1)
    # bench_solve asserts objective equality internally; reaching here
    # with a hit recorded is the contract.
    assert solve["cache"]["hits"] >= 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced repeats/sizes (CI smoke)")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
                        help=f"where to write the JSON (default {DEFAULT_OUTPUT})")
    parser.add_argument("--baseline", type=pathlib.Path, default=None,
                        help="committed BENCH_perf.json to gate against")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="fractional tolerance per gated metric")
    parser.add_argument("--workers", type=int, default=4,
                        help="space-shard count for the spatial scale "
                             "benchmark (default 4)")
    parser.add_argument("--profile", type=int, nargs="?", const=15, default=0,
                        metavar="N",
                        help="print a per-section cProfile top-N (default 15) "
                             "— profiling overhead poisons the timings, so "
                             "do not combine with --baseline gating")
    args = parser.parse_args(argv)
    if args.profile and args.baseline is not None:
        parser.error("--profile distorts timings; drop --baseline")

    payload = run_benchmarks(
        quick=args.quick,
        workers=args.workers,
        profile_top=args.profile,
    )
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwrote {args.output}")

    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())
        failures = compare_to_baseline(payload, baseline, args.max_regression)
        if failures:
            print("\nPERF REGRESSION:")
            for line in failures:
                print(f"  - {line}")
            return 1
        print(f"\nno regression beyond {args.max_regression:.0%} "
              f"vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
