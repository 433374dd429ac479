#!/usr/bin/env python3
"""Benchmark of the Arlo simulator: one named workload per invocation.

    python3 e2ebench/run.py --workload disc_bursty --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``. A run
first simulates every replica trace of the workload once (fixed work, so
the simulated statistics depend only on the seed), then repeats replicas
until ``--seconds`` have passed to sample host time. Host times are
calibrated against a reference loop sampled throughout the run (see
``calibration.py``), which takes the machine's drifting speed out of them.
It prints one line of simulated serving statistics with a digest of the
sorted latencies, which a change that only makes the simulator faster must
leave identical, and then, as its last line, the result: end-to-end
metrics with ``--trace 0`` and per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: program sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.sim.events import (  # noqa: E402
    completion_pool_stats,
    decode_task_pool_stats,
)
from repro.sim.simulation import run_simulation  # noqa: E402

from calibration import Calibration  # noqa: E402
from layers import LayerTracer  # noqa: E402
from workloads import SCHEME, WORKLOADS, Workload, check  # noqa: E402

#: Simulated figures a generative run reports through ``dispatch_stats``.
TOKEN_TIMES = ("ttft_p50_ms", "ttft_p98_ms", "tpot_p50_ms", "tpot_p98_ms")


@dataclass
class Sim:
    """One simulation: its set-up and host times and what it produced.

    Times are host seconds less reference slices; ``setup_speed`` (set-up)
    and ``speed`` (simulation) turn them into calibrated seconds.
    """

    replica: int
    trace_s: float
    scheme_s: float
    wall_s: float
    setup_speed: float
    speed: float
    requests: int
    digest: str
    failures: list[str]
    # Kept for the first simulation of each replica only.
    latencies: np.ndarray | None = None
    served_max_length: int = 0
    prompt_tokens: int = 0
    slo_ms: float = 0.0
    dispatch_stats: dict = field(default_factory=dict)
    control_stats: dict = field(default_factory=dict)
    cache_stats: dict = field(default_factory=dict)
    events: int = 0

    @property
    def setup_s(self) -> float:
        """Calibrated set-up time: trace plus scheme."""
        return (self.trace_s + self.scheme_s) * self.setup_speed

    @property
    def sim_s(self) -> float:
        """Calibrated host time inside ``run_simulation``."""
        return self.wall_s * self.speed


def simulate(workload: Workload, replica: int, seed: int,
             calibration: Calibration, tracer: LayerTracer | None = None,
             keep: bool = False) -> Sim:
    spec = workload.spec(seed)
    clock = calibration.now
    gc.collect()
    since = calibration.mark()
    start = clock()
    trace = spec.make_trace()
    traced_at = clock()
    scheme = spec.make_scheme(SCHEME, trace)
    built_at = clock()
    setup_speed = calibration.speed(since)
    config = workload.sim_config(spec)
    gc.collect()
    since = calibration.mark()
    if tracer is None:
        begin = clock()
        result = run_simulation(scheme, trace, config)
        wall = clock() - begin
    else:
        with tracer.installed():
            begin = clock()
            result = tracer.span("sim", run_simulation, scheme, trace, config)
            wall = clock() - begin
    speed = calibration.speed(since)
    latencies = result.latencies()
    token_times = {k: result.dispatch_stats.get(k) for k in TOKEN_TIMES}
    digest = hashlib.sha256(np.sort(latencies).tobytes())
    digest.update(json.dumps(token_times, sort_keys=True).encode())
    sim = Sim(
        replica=replica,
        trace_s=traced_at - start,
        scheme_s=built_at - traced_at,
        wall_s=wall,
        setup_speed=setup_speed,
        speed=speed,
        requests=len(trace),
        digest=digest.hexdigest(),
        failures=check(workload, trace, result),
    )
    if keep:
        max_lengths = scheme.registry.bin_edges()
        sim.latencies = latencies
        sim.served_max_length = int(
            max_lengths[result.metrics.runtime_indexes()].sum()
        )
        sim.prompt_tokens = int(trace.length.sum())
        sim.slo_ms = scheme.slo_ms
        sim.dispatch_stats = dict(result.dispatch_stats)
        sim.control_stats = dict(result.control_stats)
        sim.cache_stats = (
            scheme.runtime_scheduler.cache_stats()
            if scheme.runtime_scheduler is not None
            else {}
        )
        sim.events = result.events_processed
    return sim


@dataclass
class Run:
    """Everything one invocation measured."""

    workload: Workload
    first: list[Sim]
    untraced: list[Sim]
    traced: list[Sim]
    tracer: LayerTracer | None
    calibration: Calibration
    trace_overheads: list[float]
    pool_allocated: dict[str, int]
    failures: list[str]


def measure(workload: Workload, seed: int, seconds: float,
            trace: bool) -> Run:
    """Simulate every replica once, then repeat until ``seconds`` pass.

    With ``trace`` every untraced simulation is paired with a traced one of
    the same replica; the per-layer totals come from the first traced
    simulation of each replica.
    """
    seeds = workload.replica_seeds(seed)
    count = len(seeds)
    completions_before = completion_pool_stats()["total_allocated"]
    tasks_before = decode_task_pool_stats()["total_allocated"]
    calibration = Calibration()
    tracer = LayerTracer(calibration.now) if trace else None
    first: list[Sim] = []
    untraced: list[Sim] = []
    traced: list[Sim] = []
    overheads: list[float] = []
    failures: list[str] = []
    with calibration.sampling():
        deadline = perf_counter() + seconds
        n = 0
        while n < count or perf_counter() < deadline:
            replica = n % count
            sim = simulate(workload, replica, seeds[replica], calibration,
                           keep=n < count)
            untraced.append(sim)
            if n < count:
                first.append(sim)
            reference = first[replica]
            runs = [sim]
            if trace:
                layer_tracer = (tracer if n < count
                                else LayerTracer(calibration.now))
                shadow = simulate(workload, replica, seeds[replica],
                                  calibration, tracer=layer_tracer,
                                  keep=n < count)
                traced.append(shadow)
                overheads.append(shadow.sim_s / sim.sim_s)
                runs.append(shadow)
            for other in runs:
                failures += [f"replica {replica}: {f}"
                             for f in other.failures]
                if other.digest != reference.digest:
                    failures.append(
                        f"replica {replica}: simulated latencies differ "
                        "between two simulations of the same trace"
                    )
            n += 1
    return Run(
        workload=workload,
        first=first,
        untraced=untraced,
        traced=traced[:count],
        tracer=tracer,
        calibration=calibration,
        trace_overheads=overheads,
        pool_allocated={
            "completion": (
                completion_pool_stats()["total_allocated"] - completions_before
            ),
            "decode_task": (
                decode_task_pool_stats()["total_allocated"] - tasks_before
            ),
        },
        failures=failures,
    )


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def quality(run: Run) -> dict:
    """Simulated serving statistics, pooled over the run's replicas.

    These are deterministic for a seed. Latency quantiles are pooled over
    every replica's requests; TTFT/TPOT quantiles are the median over
    replicas of each replica's figures (the simulator exposes them per run
    only). A discriminative request has no decode tokens, so the TTFT/TPOT
    entries are null there.
    """
    latencies = np.concatenate([s.latencies for s in run.first])
    sent = sum(s.requests for s in run.first)
    within = sum(int((s.latencies <= s.slo_ms).sum()) for s in run.first)
    out = {
        "latency_p50_ms": _metric(float(np.percentile(latencies, 50)), "ms"),
        "latency_p98_ms": _metric(float(np.percentile(latencies, 98)), "ms"),
        "slo_attainment": _metric(within / sent, "fraction"),
    }
    for key in TOKEN_TIMES:
        values = [s.dispatch_stats[key] for s in run.first
                  if key in s.dispatch_stats]
        out[key] = _metric(statistics.median(values) if values else None,
                           "ms")
    digest = hashlib.sha256()
    for sim in run.first:
        digest.update(sim.digest.encode())
    out["failed_fraction"] = _metric(failed(run) / sent, "fraction")
    out["latency_digest"] = digest.hexdigest()
    return out


def attempted(run: Run) -> int:
    return sum(s.requests for s in run.first)


def failed(run: Run) -> int:
    """Requests sent that never completed; all of them if a check failed."""
    if run.failures:
        return attempted(run)
    return sum(s.requests - s.latencies.size for s in run.first)


def host_rate(run: Run) -> float:
    """Median over replicas of requests per calibrated host second in the
    simulator.

    Each replica's host time is the median over its repeats. The median
    over replicas keeps a run's figure from hinging on the one or two
    replica traces whose bursts or faults cost several times the rest.
    """
    walls: dict[int, list[float]] = {}
    for sim in run.untraced:
        walls.setdefault(sim.replica, []).append(sim.sim_s)
    return statistics.median(
        sim.requests / statistics.median(walls[sim.replica])
        for sim in run.first
    )


def end_to_end(run: Run, summary: dict) -> dict:
    setups = [s.setup_s for s in run.untraced]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "calibrated_requests_per_s": _metric(host_rate(run), "req/s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(peak_kib / 1024.0, "MiB"),
        "slo_attainment": summary["slo_attainment"],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(run: Run) -> dict:
    """Per-layer metrics of the traced simulations (one per replica).

    Busy time of a layer is given as its share of the traced simulations'
    host time, so a layer a workload never enters reads 0 as a share
    rather than as a time.
    """
    tracer = run.tracer
    traced = run.traced
    host_s = sum(s.wall_s for s in traced)
    busy, calls = tracer.busy_s, tracer.calls

    def total(source: str, key: str) -> float:
        return sum(getattr(s, source).get(key, 0) for s in traced)

    dispatched = total("dispatch_stats", "dispatched")
    lookups = total("cache_stats", "hits") + total("cache_stats", "misses")
    requests = sum(s.requests for s in traced)
    decode_steps = total("control_stats", "decode_steps")
    step_events = total("control_stats", "step_events")
    control_s = [tracer.max_s["core.runtime_scheduler.step"],
                 tracer.max_s["core.runtime_scheduler.pool_split"]]
    setups = run.untraced + run.traced
    # The disaggregated loop records the decode instance that finished a
    # request, not the prefill runtime that padded its prompt, so the
    # ratio has no meaning there and reads 0.
    padding = 0.0 if run.workload.disagg else _ratio(
        sum(s.prompt_tokens for s in traced),
        sum(s.served_max_length for s in traced),
    )
    rs = "core.runtime_scheduler"
    rq = "core.request_scheduler"
    out = {
        "workload.trace_s": _metric(
            statistics.median(s.trace_s * s.setup_speed for s in setups),
            "s"),
        "experiments.make_scheme_s": _metric(
            statistics.median(s.scheme_s * s.setup_speed for s in setups),
            "s"),
        f"{rs}.step_calls": _metric(calls[f"{rs}.step"], "count"),
        f"{rs}.step_share": _metric(busy[f"{rs}.step"] / host_s, "fraction"),
        f"{rs}.decide_calls": _metric(calls[f"{rs}.decide"], "count"),
        f"{rs}.decide_share": _metric(busy[f"{rs}.decide"] / host_s,
                                      "fraction"),
        f"{rs}.solve_max_ms": _metric(max(control_s) * 1e3, "ms"),
        f"{rs}.pool_split_calls": _metric(calls[f"{rs}.pool_split"], "count"),
        f"{rs}.pool_split_share": _metric(busy[f"{rs}.pool_split"] / host_s,
                                          "fraction"),
        f"{rs}.cache_lookups": _metric(int(lookups), "count"),
        f"{rs}.cache_hit_rate": _metric(
            _ratio(total("cache_stats", "hits"), lookups), "fraction"),
        f"{rq}.dispatch_calls": _metric(calls[f"{rq}.dispatch"], "count"),
        f"{rq}.dispatch_share": _metric(busy[f"{rq}.dispatch"] / host_s,
                                        "fraction"),
        f"{rq}.attempts_per_dispatch": _metric(
            _ratio(calls[f"{rq}.dispatch"], dispatched), "ratio"),
        f"{rq}.demotion_rate": _metric(
            _ratio(sum(s.dispatch_stats["demotion_rate"]
                       * s.dispatch_stats["dispatched"] for s in traced),
                   dispatched), "fraction"),
        f"{rq}.fallback_rate": _metric(
            _ratio(sum(s.dispatch_stats["fallback_rate"]
                       * s.dispatch_stats["dispatched"] for s in traced),
                   dispatched), "fraction"),
        f"{rq}.batched_share": _metric(
            _ratio(total("dispatch_stats", "batched"), dispatched),
            "fraction"),
        "runtimes.padding_efficiency": _metric(padding, "fraction"),
        "sim.events": _metric(sum(s.events for s in traced), "count"),
        "sim.events_per_request": _metric(
            sum(s.events for s in traced) / requests, "events/req"),
        "sim.loop_self_s": _metric(tracer.self_s["sim"], "s"),
        "sim.events.completion_pool_allocated": _metric(
            run.pool_allocated["completion"], "count"),
        "sim.events.decode_task_pool_allocated": _metric(
            run.pool_allocated["decode_task"], "count"),
        "sim.generative.decode_steps": _metric(int(decode_steps), "count"),
        "sim.generative.step_events": _metric(int(step_events), "count"),
        "sim.generative.tokens_per_step": _metric(
            _ratio(decode_steps, step_events), "tokens/step"),
        "sim.generative.batch_joins": _metric(
            int(total("control_stats", "batch_joins")), "count"),
    }
    for key in ("kv_transfers", "kv_transfers_voided", "pool_flips"):
        out[f"sim.disagg.{key}"] = _metric(
            int(total("control_stats", key)), "count")
    for key in ("prefill_pool_size", "decode_pool_size"):
        out[f"sim.disagg.{key}"] = _metric(
            total("dispatch_stats", key) / len(traced), "instances")
    for key in ("deferred", "retries", "requests_lost",
                "retry_budget_exhausted", "breaker_trips", "quarantines"):
        out[f"resilience.{key}"] = _metric(
            int(total("control_stats", key)), "count")
    out["resilience.gated"] = _metric(
        int(total("dispatch_stats", "gated")), "count")
    out["cluster.replacements"] = _metric(
        int(total("control_stats", "replacements")), "count")
    out["bench.trace_overhead"] = _metric(
        statistics.median(run.trace_overheads), "ratio")
    out["bench.reference_slice_ms"] = _metric(
        statistics.median(run.calibration.slices) * 1e3, "ms")
    return out


def result_line(run: Run, trace: bool, summary: dict) -> dict:
    return {
        "correct": not run.failures,
        "attempted": attempted(run),
        "failed": failed(run),
        "metrics": per_layer(run) if trace else end_to_end(run, summary),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    workload = WORKLOADS[args.workload]
    run = measure(workload, args.seed, args.seconds, bool(args.trace))
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    summary = quality(run)
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "replicas": workload.replicas, "quality": summary}))
    print(json.dumps(result_line(run, bool(args.trace), summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
