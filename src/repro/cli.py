"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``trace``     generate a Twitter-like trace and write it to ``.npz``
``profile``   run the offline stage (compile + profile) for a model and
              write the polymorph-set JSON document
``simulate``  serve a trace with one scheme and print/save the summary
``compare``   run several schemes on one trace and print the paper-style
              comparison table and ASCII latency CDF
``solve``     solve one Eqs. 1–7 allocation instance from JSON input
``experiment`` run an ExperimentSpec from a JSON file (optionally a
              sweep over listed fields, optionally in parallel)

Every command is a thin shell over the public library API, so anything
the CLI does is equally scriptable from Python.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.baselines.schemes import SCHEME_NAMES, build_scheme
from repro.core.allocation import AllocationProblem, solve_allocation
from repro.experiments.plots import cdf_plot
from repro.experiments.report import comparison_table, format_table
from repro.io.profiles import save_registry
from repro.io.results import result_to_dict, save_result_summary
from repro.io.traces import load_trace, save_trace
from repro.runtimes.models import MODEL_ZOO
from repro.runtimes.registry import build_polymorph_set
from repro.sim.generative import build_generative_config
from repro.sim.simulation import SimulationConfig, run_simulation
from repro.units import seconds
from repro.workload.twitter import TwitterTraceConfig, generate_twitter_trace


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rate", type=float, default=1_000.0,
                        help="mean arrival rate (req/s)")
    parser.add_argument("--duration", type=float, default=60.0,
                        help="trace duration (seconds)")
    parser.add_argument("--pattern", choices=("stable", "bursty"),
                        default="stable")
    parser.add_argument("--seed", type=int, default=0)


def _add_generative_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--generative", action="store_true",
                        help="prefill+decode workload: sample per-request "
                        "decode lengths and serve through the decode event "
                        "loop with continuous batching")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="decode batch size cap per instance "
                        "(--generative only)")
    parser.add_argument("--chunk-steps", type=int, default=1,
                        help="decode steps advanced per DECODE_STEP event "
                        "(--generative only)")
    parser.add_argument("--gang", action="store_true",
                        help="gang-schedule decode batches instead of "
                        "continuous batching (--generative only)")
    parser.add_argument("--decode-median", type=int, default=64,
                        help="median sampled decode length "
                        "(--generative only)")
    parser.add_argument("--decode-p98", type=int, default=256,
                        help="p98 sampled decode length (--generative only)")
    parser.add_argument("--disagg", action="store_true",
                        help="disaggregated prefill/decode pools: prompts "
                        "run on a prefill pool, the KV cache transfers to "
                        "a decode pool, roles rebalance adaptively "
                        "(--generative only)")
    parser.add_argument("--transfer-ms-per-token", type=float, default=0.02,
                        help="KV transfer cost per prompt token "
                        "(--disagg only)")
    parser.add_argument("--prefill-fraction", type=float, default=0.5,
                        help="initial prefill-pool share of instances "
                        "(--disagg only)")


def _make_trace(args: argparse.Namespace):
    if getattr(args, "generative", False):
        from repro.workload.generative import (
            GenerativeTraceConfig,
            generate_generative_trace,
        )
        from repro.workload.lengths import LogNormalLengths

        return generate_generative_trace(
            GenerativeTraceConfig(
                rate_per_s=args.rate,
                duration_ms=seconds(args.duration),
                pattern=args.pattern,
                seed=args.seed,
                decode_lengths=LogNormalLengths.from_quantiles(
                    median=args.decode_median,
                    p98=args.decode_p98,
                    max_length=max(2 * args.decode_p98, args.decode_p98 + 1),
                ),
            )
        )
    return generate_twitter_trace(
        TwitterTraceConfig(
            rate_per_s=args.rate,
            duration_ms=seconds(args.duration),
            pattern=args.pattern,
            seed=args.seed,
        )
    )


def _generative_config_from_args(args: argparse.Namespace):
    """``SimulationConfig.generative`` value from CLI flags (or None)."""
    if not getattr(args, "generative", False):
        if getattr(args, "disagg", False):
            raise SystemExit("--disagg requires --generative (the pools "
                             "serve a prefill+decode workload)")
        return None
    return build_generative_config(
        max_batch=args.max_batch,
        continuous_batching=not args.gang,
        chunk_steps=args.chunk_steps,
        disagg=args.disagg,
        transfer_ms_per_token=args.transfer_ms_per_token,
        prefill_fraction=args.prefill_fraction,
    )


def cmd_trace(args: argparse.Namespace) -> int:
    """Dual-mode: with ``--output``, generate a workload trace (the
    legacy behaviour); without it, run a *traced* simulation and print
    the observability summary (optionally exporting spans/timeline/
    Prometheus artifacts and validating them against the schemas)."""
    if args.output:
        trace = _make_trace(args)
        path = save_trace(trace, args.output)
        print(f"wrote {trace} to {path}")
        return 0
    if args.workers > 1:
        if args.generative:
            raise SystemExit("--generative needs the serial path: decode "
                             "batches do not partition spatially "
                             "(drop --workers)")
        return _cmd_trace_spatial(args)
    return _cmd_trace_run(args)


def _cmd_trace_spatial(args: argparse.Namespace) -> int:
    """``trace --workers N``: serve the trace as N request-partition
    space shards and print the merged summary.

    The spatial data plane has no span pipeline (each shard is an
    independent simulation; probe-faithful tracing stays a serial
    feature), so the observability exports and chaos faults are
    rejected rather than silently dropped.
    """
    from repro.experiments.runner import ExperimentSpec
    from repro.sim.sharded import run_spatial

    if args.chaos:
        raise SystemExit("--chaos needs the serial path: faults do not "
                         "partition spatially (drop --workers)")
    for flag in ("spans_out", "timeline_out", "prom_out"):
        if getattr(args, flag):
            raise SystemExit(f"--{flag.replace('_', '-')} needs the serial "
                             "path: spatial shards collect no spans "
                             "(drop --workers)")
    trace = load_trace(args.trace) if args.trace else None
    spec = ExperimentSpec(
        name="cli-trace",
        model=args.model,
        num_gpus=args.gpus,
        rate_per_s=args.rate,
        duration_s=args.duration,
        pattern=args.pattern,
        seed=args.seed,
        schemes=(args.scheme,),
        warmup_s=args.warmup,
        trace_override=trace,
        space_partition="request",
    )
    merged = run_spatial(spec, args.scheme, args.workers)
    stats = merged.stats
    print(f"{args.scheme}: {args.workers} request-partition space shards")
    print(f"  completed {stats.count}  mean {stats.mean_ms:.2f} ms  "
          f"p99 {stats.p99_ms:.2f} ms  "
          f"slo_violation {stats.slo_violation_rate:.4f}")
    print(f"  events {merged.events_processed}  "
          f"span {merged.end_ms / 1000.0:.1f} s  "
          f"gpus {merged.time_weighted_gpus:.2f}")
    walls = ", ".join(f"{w:.3f}" for w in merged.shard_walls)
    print(f"  shard walls (s): {walls}")
    for label, source in (("dispatch", merged.dispatch_stats),
                          ("control", merged.control_stats)):
        if source:
            body = "  ".join(f"{k}={v:g}" for k, v in sorted(source.items()))
            print(f"  {label}: {body}")
    return 0


def _cmd_trace_run(args: argparse.Namespace) -> int:
    from repro.obs import (
        format_summary,
        load_schema,
        prometheus_snapshot,
        summarize_spans,
        validate_jsonl,
        validate_prometheus_text,
        write_spans_jsonl,
        write_timeline_jsonl,
    )
    from repro.obs.spans import ObservabilityConfig
    from repro.sim.faults import FaultPlan

    trace = _trace_from_args(args)
    hint = trace.slice_time(0, min(seconds(5), trace.duration_ms / 4))
    scheme = build_scheme(args.scheme, args.model, args.gpus,
                          trace_hint=hint if len(hint) else None,
                          runtime_scheduler_config=_runtime_cfg_from_args(args))
    failures = None
    if args.chaos:
        failures = FaultPlan.chaos(trace.duration_ms, seed=args.seed)
    result = run_simulation(scheme, trace, SimulationConfig(
        warmup_ms=seconds(args.warmup),
        failures=failures,
        observability=ObservabilityConfig(sample_rate=args.sample_rate),
        generative=_generative_config_from_args(args),
    ))
    if args.generative:
        cs = result.control_stats
        print(f"generative: decode_steps {cs['decode_steps']}  "
              f"step_events {cs['step_events']}  "
              f"batch_joins {cs['batch_joins']}")
        ds = result.dispatch_stats
        if "ttft_mean_ms" in ds:
            print(f"  ttft mean {ds['ttft_mean_ms']:.2f} ms  "
                  f"p50 {ds['ttft_p50_ms']:.2f} ms  "
                  f"p98 {ds['ttft_p98_ms']:.2f} ms")
        if "tpot_mean_ms" in ds:
            print(f"  tpot mean {ds['tpot_mean_ms']:.2f} ms  "
                  f"p50 {ds['tpot_p50_ms']:.2f} ms  "
                  f"p98 {ds['tpot_p98_ms']:.2f} ms")
        if args.disagg:
            print(f"  disagg: kv_transfers {cs['kv_transfers']}  "
                  f"pool_flips {cs['pool_flips']}  "
                  f"pools {ds['prefill_pool_size']:.0f}p/"
                  f"{ds['decode_pool_size']:.0f}d")

    summary = summarize_spans(result.spans)
    print(format_summary(summary, scheme_name=result.scheme_name))
    if result.timeline is not None and len(result.timeline):
        print()
        print("control-plane timeline:")
        for key, count in sorted(result.timeline.counts().items()):
            print(f"  {key}: {count}")

    if args.spans_out:
        n = write_spans_jsonl(args.spans_out, result.spans)
        print(f"wrote {n} spans to {args.spans_out}", file=sys.stderr)
        if args.validate:
            validate_jsonl(args.spans_out, load_schema("trace_span"))
            print(f"validated {args.spans_out}", file=sys.stderr)
    if args.timeline_out:
        n = write_timeline_jsonl(args.timeline_out, result.timeline)
        print(f"wrote {n} timeline events to {args.timeline_out}",
              file=sys.stderr)
        if args.validate:
            validate_jsonl(args.timeline_out, load_schema("timeline_event"))
            print(f"validated {args.timeline_out}", file=sys.stderr)
    if args.prom_out:
        result.metrics._sync_sketch()
        text = prometheus_snapshot(
            counters={
                k: float(v) for k, v in result.control_stats.items()
            },
            gauges={
                "time_weighted_gpus": result.time_weighted_gpus,
                "events_processed": float(result.events_processed),
            },
            sketch=result.metrics.sketch,
            labels={"scheme": result.scheme_name},
        )
        import pathlib

        pathlib.Path(args.prom_out).write_text(text)
        print(f"wrote prometheus snapshot to {args.prom_out}",
              file=sys.stderr)
        if args.validate:
            validate_prometheus_text(text)
            print(f"validated {args.prom_out}", file=sys.stderr)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    registry = build_polymorph_set(MODEL_ZOO[args.model])
    path = save_registry(registry, args.output)
    print(f"profiled {len(registry)} runtimes for {args.model} -> {path}")
    for p in registry:
        print(f"  max_length {p.max_length:4d}: {p.service_ms:6.2f} ms, "
              f"M={p.capacity}")
    return 0


def _trace_from_args(args: argparse.Namespace):
    if getattr(args, "trace", None):
        return load_trace(args.trace)
    return _make_trace(args)


def _runtime_cfg_from_args(args: argparse.Namespace):
    """Anytime-control-plane config from CLI flags, or None for defaults.

    Returning None (the default) keeps the scheme factory on its own
    defaults, so flows that never pass --solver-ladder are untouched.
    """
    if not getattr(args, "solver_ladder", False):
        return None
    from repro.core.runtime_scheduler import RuntimeSchedulerConfig

    return RuntimeSchedulerConfig(
        solver_ladder=True,
        solve_deadline_ms=args.solve_deadline_ms,
        forecast=args.forecast,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    trace = _trace_from_args(args)
    hint = trace.slice_time(0, min(seconds(5), trace.duration_ms / 4))
    scheme = build_scheme(args.scheme, args.model, args.gpus,
                          trace_hint=hint if len(hint) else None)
    result = run_simulation(scheme, trace, SimulationConfig(
        warmup_ms=seconds(args.warmup)))
    summary = result_to_dict(result)
    print(json.dumps(summary, indent=2))
    if args.output:
        save_result_summary(result, args.output)
        print(f"saved summary to {args.output}", file=sys.stderr)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    trace = _trace_from_args(args)
    hint = trace.slice_time(0, min(seconds(5), trace.duration_ms / 4))
    results = {}
    for name in args.schemes:
        scheme = build_scheme(name, args.model, args.gpus,
                              trace_hint=hint if len(hint) else None)
        results[name] = run_simulation(
            scheme, trace, SimulationConfig(warmup_ms=seconds(args.warmup))
        )
    rows = comparison_table(results, reference=args.reference)
    print(format_table(
        rows, title=f"{args.model} @ {trace.mean_rate_per_s:.0f} req/s, "
        f"{args.gpus} GPUs"))
    if args.cdf:
        print()
        print(cdf_plot(
            {name: res.latencies() for name, res in results.items()},
            title="latency CDF",
            x_max=float(np.percentile(
                results[args.reference].latencies(), 99.5)) * 3,
        ))
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    payload = json.loads(sys.stdin.read() if args.input == "-"
                         else open(args.input).read())
    problem = AllocationProblem(
        num_gpus=int(payload["num_gpus"]),
        demand=np.asarray(payload["demand"], dtype=float),
        capacity=np.asarray(payload["capacity"]),
        service_ms=np.asarray(payload["service_ms"], dtype=float),
        overhead_ms=float(payload.get("overhead_ms", 0.8)),
    )
    result = solve_allocation(problem, method=args.method,
                              relax=args.relax)
    print(json.dumps({
        "allocation": result.allocation.tolist(),
        "objective": result.objective,
        "solver": result.solver,
        "solve_time_s": result.solve_time_s,
        "relaxed": result.relaxed,
    }, indent=2))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.runner import ExperimentSpec
    from repro.experiments.sweep import expand_grid, run_sweep

    payload = json.loads(sys.stdin.read() if args.spec == "-"
                         else open(args.spec).read())
    axes = payload.pop("sweep", {})
    if "schemes" in payload:
        payload["schemes"] = tuple(payload["schemes"])
    # CLI flags override the JSON spec so scenario sweeps can flip the
    # anytime path without editing spec files.
    if args.solver_ladder:
        payload["solver_ladder"] = True
        payload["solve_deadline_ms"] = args.solve_deadline_ms
        if args.forecast:
            payload["forecast"] = True
    spec = ExperimentSpec(**payload)
    specs = expand_grid(spec, **axes)
    results = run_sweep(specs, workers=args.workers)
    print(json.dumps(results, indent=2))
    if args.output:
        import pathlib

        pathlib.Path(args.output).write_text(json.dumps(results, indent=2))
        print(f"saved results to {args.output}", file=sys.stderr)
    return 0


def _add_anytime_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--solver-ladder", action="store_true",
                   help="run the control plane through the anytime solver "
                   "ladder (greedy -> local -> dp) under a "
                   "wall-clock deadline")
    p.add_argument("--solve-deadline-ms", type=float, default=50.0,
                   help="per-period wall-clock solve deadline for "
                   "--solver-ladder (default 50)")
    p.add_argument("--forecast", action="store_true",
                   help="with --solver-ladder: forecast next-period demand "
                   "and pre-solve it into the allocation cache")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Arlo reproduction: polymorph serving experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser(
        "trace",
        help="with --output: generate a Twitter-like trace; without: "
        "run a traced simulation and summarise its spans/timeline",
    )
    _add_trace_args(p_trace)
    _add_generative_args(p_trace)
    p_trace.add_argument("--output",
                        help="write the generated trace .npz here "
                        "(omit to run the observability summarizer)")
    p_trace.add_argument("--trace", help="trace .npz (otherwise synthesise)")
    p_trace.add_argument("--model", choices=sorted(MODEL_ZOO),
                         default="bert-base")
    p_trace.add_argument("--scheme", choices=SCHEME_NAMES, default="arlo")
    p_trace.add_argument("--gpus", type=int, default=10)
    p_trace.add_argument("--warmup", type=float, default=0.0,
                         help="seconds excluded from statistics")
    p_trace.add_argument("--chaos", action="store_true",
                         help="inject the standard chaos fault plan")
    p_trace.add_argument("--sample-rate", type=float, default=1.0,
                         help="fraction of requests traced (0..1)")
    p_trace.add_argument("--spans-out", help="write span JSONL here")
    p_trace.add_argument("--timeline-out",
                         help="write timeline-event JSONL here")
    p_trace.add_argument("--prom-out",
                         help="write a Prometheus text snapshot here")
    p_trace.add_argument("--validate", action="store_true",
                         help="validate exported artifacts against the "
                         "checked-in schemas")
    p_trace.add_argument("--workers", type=int, default=1,
                         help="run the simulation as this many "
                         "request-partition space shards and print the "
                         "merged summary (incompatible with --chaos and "
                         "the span/timeline/prometheus exports)")
    _add_anytime_args(p_trace)
    p_trace.set_defaults(fn=cmd_trace)

    p_profile = sub.add_parser("profile", help="offline compile+profile")
    p_profile.add_argument("--model", choices=sorted(MODEL_ZOO),
                           default="bert-base")
    p_profile.add_argument("--output", required=True)
    p_profile.set_defaults(fn=cmd_profile)

    p_sim = sub.add_parser("simulate", help="serve a trace with one scheme")
    _add_trace_args(p_sim)
    p_sim.add_argument("--trace", help="trace .npz (otherwise synthesise)")
    p_sim.add_argument("--model", choices=sorted(MODEL_ZOO),
                       default="bert-base")
    p_sim.add_argument("--scheme", choices=SCHEME_NAMES, default="arlo")
    p_sim.add_argument("--gpus", type=int, default=10)
    p_sim.add_argument("--warmup", type=float, default=0.0,
                       help="seconds excluded from statistics")
    p_sim.add_argument("--output", help="write JSON summary here")
    p_sim.set_defaults(fn=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run several schemes on one trace")
    _add_trace_args(p_cmp)
    p_cmp.add_argument("--trace")
    p_cmp.add_argument("--model", choices=sorted(MODEL_ZOO),
                       default="bert-base")
    p_cmp.add_argument("--schemes", nargs="+", default=list(SCHEME_NAMES[:4]),
                       choices=SCHEME_NAMES)
    p_cmp.add_argument("--gpus", type=int, default=10)
    p_cmp.add_argument("--warmup", type=float, default=0.0)
    p_cmp.add_argument("--reference", default="arlo")
    p_cmp.add_argument("--cdf", action="store_true",
                       help="render an ASCII latency CDF")
    p_cmp.set_defaults(fn=cmd_compare)

    p_exp = sub.add_parser(
        "experiment",
        help="run an ExperimentSpec JSON (fields of "
        "repro.experiments.runner.ExperimentSpec, plus an optional "
        "'sweep' object mapping field -> list of values)",
    )
    p_exp.add_argument("--spec", default="-",
                       help="JSON spec file ('-' = stdin)")
    p_exp.add_argument("--workers", type=int, default=1)
    p_exp.add_argument("--output", help="also write results JSON here")
    _add_anytime_args(p_exp)
    p_exp.set_defaults(fn=cmd_experiment)

    p_solve = sub.add_parser("solve", help="solve one Eqs. 1-7 instance")
    p_solve.add_argument("--input", default="-",
                         help="JSON file with the problem ('-' = stdin)")
    p_solve.add_argument("--method", default="auto",
                         choices=("auto", "dp", "local", "brute", "milp"))
    p_solve.add_argument("--relax", action="store_true")
    p_solve.set_defaults(fn=cmd_solve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
