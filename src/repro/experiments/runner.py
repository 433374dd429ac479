"""Run experiments: schemes over traces, inline or across processes."""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.baselines.schemes import Scheme, build_scheme
from repro.cluster.autoscaler import AutoscalerConfig
from repro.core.request_scheduler import RequestSchedulerConfig
from repro.core.runtime_scheduler import RuntimeSchedulerConfig
from repro.errors import ConfigurationError
from repro.resilience.retry import RetryPolicy
from repro.runtimes.models import get_model
from repro.runtimes.registry import RuntimeRegistry, build_polymorph_set
from repro.runtimes.staircase import polymorph_lengths_for_count
from repro.sim.faults import FaultPlan
from repro.sim.generative import build_generative_config
from repro.sim.simulation import SimulationConfig, SimulationResult, run_simulation
from repro.units import seconds
from repro.workload.trace import Trace
from repro.workload.twitter import TwitterTraceConfig, generate_twitter_trace


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete experiment definition (one paper sub-figure)."""

    name: str
    model: str
    num_gpus: int
    rate_per_s: float
    duration_s: float
    pattern: str = "stable"
    schemes: tuple[str, ...] = ("st", "dt", "infaas", "arlo")
    seed: int = 0
    #: Leading slice used to warm-start length-aware allocations.
    hint_s: float = 5.0
    #: Requests arriving before this are excluded from the statistics.
    warmup_s: float = 0.0
    #: Runtime Scheduler period; the paper's 120 s assumes ≥10-minute
    #: traces, so scaled-down runs shrink it proportionally.
    scheduler_period_s: float = 20.0
    #: Number of polymorph runtimes (None = the model's staircase count).
    num_runtimes: int | None = None
    #: Auto-scaling (Fig. 8): None disables it.
    autoscaler: AutoscalerConfig | None = None
    trace_drift_scale: float = 0.08
    #: Drift window of the length distribution; scaled-down experiments
    #: compress the paper's one-minute drift together with everything
    #: else (trace duration, scheduler period) so the Runtime Scheduler
    #: has several distribution shifts to chase.
    trace_drift_window_s: float = 15.0
    #: Fault schedule injected into the run (None = fault-free).
    failures: FaultPlan | None = None
    #: Retry policy for lost work: the string sentinel keeps the
    #: simulator's default backoff, None disables retries (instant
    #: re-dispatch), or pass an explicit :class:`RetryPolicy`.
    retry: "RetryPolicy | None | str" = "default"
    #: Replay an explicit trace instead of generating a Twitter-like
    #: one (real count series, hand-built equivalence fixtures...).
    #: ``duration_s`` must still cover the trace's span.
    trace_override: Trace | None = field(default=None, compare=False)
    #: ``(index, count)`` — run only time-window ``index`` of ``count``
    #: equal windows of the trace, in shard-local time. Set by the
    #: sharded driver (:mod:`repro.sim.sharded`); the scheme is still
    #: built from the *full* trace's hint slice so every shard deploys
    #: the same initial allocation as the serial run.
    shard: tuple[int, int] | None = None
    #: ``(index, count)`` — run only *space* shard ``index`` of
    #: ``count``: the cluster (not the clock) is partitioned, every
    #: shard replays its own slice of the arrival stream on unshifted
    #: timestamps. Set by :func:`repro.sim.sharded.run_spatial`;
    #: mutually exclusive with ``shard``.
    space_shard: tuple[int, int] | None = None
    #: How space shards partition work. ``"request"``: shard ``k``
    #: keeps requests with ``id % count == k`` and a proportional GPU
    #: slice — a scaled replica preserving per-GPU load (approximate
    #: equivalence). ``"level"``: shard ``k`` owns the MLQ levels with
    #: ``level % count == k``, keeps exactly their requests, and
    #: retires every foreign-level instance — *exact* (bin-exact
    #: sketch) for static multi-level schemes while the serial run has
    #: zero demotions/fallbacks/deferrals (see docs/PERFORMANCE.md).
    space_partition: str = "request"
    #: Solve allocations through the deadline-bounded anytime ladder
    #: (:mod:`repro.perf.anytime`) instead of a single solver.
    solver_ladder: bool = False
    #: Wall-clock budget per ladder solve, milliseconds.
    solve_deadline_ms: float = 50.0
    #: Forecast next-period demand and pre-solve it into the allocation
    #: cache (requires ``solver_ladder``).
    forecast: bool = False
    #: Generative (prefill + decode) workload: sample per-request decode
    #: lengths and serve through the decode event loop with continuous
    #: batching (Arlo-family schemes only).
    generative: bool = False
    #: Decode batch cap per instance (``generative`` only).
    max_batch: int = 8
    #: False = gang-scheduled batches (``generative`` only).
    continuous_batching: bool = True
    #: Decode steps advanced per DECODE_STEP event (``generative`` only).
    chunk_steps: int = 1
    #: Sampled decode-length quantiles (``generative`` only).
    decode_median: int = 64
    decode_p98: int = 256
    #: Disaggregated prefill/decode pools (``generative`` only): serve
    #: through two pools with KV handoff and adaptive rebalancing.
    disagg: bool = False
    #: KV-cache transfer cost per prompt token (``disagg`` only).
    transfer_ms_per_token: float = 0.02
    #: Initial share of instances assigned to the prefill pool
    #: (``disagg`` only); the rebalancer adjusts from there.
    prefill_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.num_gpus < 1 or self.rate_per_s <= 0 or self.duration_s <= 0:
            raise ConfigurationError("invalid experiment dimensions")
        if self.hint_s >= self.duration_s:
            raise ConfigurationError("hint slice must be shorter than the trace")
        if self.shard is not None:
            index, count = self.shard
            if count < 1 or not 0 <= index < count:
                raise ConfigurationError(
                    "shard must be (index, count) with 0 <= index < count"
                )
        if self.space_partition not in ("request", "level"):
            raise ConfigurationError(
                f"unknown space partition {self.space_partition!r} "
                "(expected 'request' or 'level')"
            )
        if self.space_shard is not None:
            if self.shard is not None:
                raise ConfigurationError(
                    "time and space shards cannot be combined"
                )
            index, count = self.space_shard
            if count < 1 or not 0 <= index < count:
                raise ConfigurationError(
                    "space_shard must be (index, count) with "
                    "0 <= index < count"
                )
            if self.failures is not None:
                raise ConfigurationError(
                    "faults do not partition spatially (victim ranking "
                    "is global) — use time shards for fault plans"
                )
            if self.space_partition == "request" and count > self.num_gpus:
                raise ConfigurationError(
                    "request-partitioned space shards need at least one "
                    "GPU each"
                )
            if self.space_partition == "level" and self.autoscaler is not None:
                raise ConfigurationError(
                    "level-partitioned space shards require a static "
                    "cluster (no autoscaler)"
                )
        if self.disagg and not self.generative:
            raise ConfigurationError(
                "disagg requires generative=True (the pools serve "
                "a prefill+decode workload)"
            )
        if self.generative:
            if self.shard is not None or self.space_shard is not None:
                raise ConfigurationError(
                    "generative runs do not shard: decode batches span "
                    "shard boundaries"
                )
            if self.decode_median < 1:
                raise ConfigurationError("decode_median must be >= 1")
            if self.decode_p98 < self.decode_median:
                raise ConfigurationError(
                    "decode_p98 must be >= decode_median (quantiles "
                    "cannot invert)"
                )
            # Building the simulation config checks the decode knobs
            # (and rejects the autoscaler) before any trace is generated.
            self.sim_config()

    def scaled(self, factor: float) -> "ExperimentSpec":
        """Proportionally shrink rate and GPUs (constant per-GPU load)."""
        if factor <= 0:
            raise ConfigurationError("scale factor must be positive")
        return replace(
            self,
            num_gpus=max(2, int(round(self.num_gpus * factor))),
            rate_per_s=self.rate_per_s * factor,
        )

    def make_full_trace(self) -> Trace:
        """The whole trace, ignoring any shard window."""
        if self.trace_override is not None:
            if self.generative:
                from repro.workload.generative import (
                    GenerativeTrace,
                    attach_decode_lengths,
                )

                if isinstance(self.trace_override, GenerativeTrace):
                    return self.trace_override
                return attach_decode_lengths(
                    self.trace_override,
                    self._decode_lengths(),
                    seed=self.seed,
                )
            return self.trace_override
        if self.generative:
            from repro.workload.generative import (
                GenerativeTraceConfig,
                generate_generative_trace,
            )

            return generate_generative_trace(
                GenerativeTraceConfig(
                    rate_per_s=self.rate_per_s,
                    duration_ms=seconds(self.duration_s),
                    pattern=self.pattern,
                    seed=self.seed,
                    drift_scale=self.trace_drift_scale,
                    drift_window_ms=seconds(self.trace_drift_window_s),
                    decode_lengths=self._decode_lengths(),
                )
            )
        return generate_twitter_trace(
            TwitterTraceConfig(
                rate_per_s=self.rate_per_s,
                duration_ms=seconds(self.duration_s),
                pattern=self.pattern,
                seed=self.seed,
                drift_scale=self.trace_drift_scale,
                drift_window_ms=seconds(self.trace_drift_window_s),
            )
        )

    def _decode_lengths(self):
        from repro.workload.lengths import LogNormalLengths

        return LogNormalLengths.from_quantiles(
            median=self.decode_median,
            p98=self.decode_p98,
            max_length=max(2 * self.decode_p98, self.decode_p98 + 1),
        )

    def shard_window_ms(self) -> tuple[float, float]:
        """Absolute ``[start, end)`` of this spec's shard window."""
        duration_ms = seconds(self.duration_s)
        if self.shard is None:
            return 0.0, duration_ms
        index, count = self.shard
        window = duration_ms / count
        start = index * window
        end = duration_ms if index == count - 1 else start + window
        return start, end

    def make_trace(self) -> Trace:
        trace = self.make_full_trace()
        if self.space_shard is not None:
            index, count = self.space_shard
            mask = space_partition_owners(self, trace, count) == index
            return Trace(trace.arrival_ms[mask], trace.length[mask])
        if self.shard is None:
            return trace
        start, end = self.shard_window_ms()
        return trace.slice_time(start, end)

    def make_registry(self) -> RuntimeRegistry | None:
        if self.num_runtimes is None:
            return None
        model = get_model(self.model)
        return build_polymorph_set(
            model,
            max_lengths=polymorph_lengths_for_count(
                model.max_length, self.num_runtimes
            ),
        )

    def make_scheme(self, scheme_name: str, trace: Trace) -> Scheme:
        # Table 3's "global" baseline is an oracle over the *entire*
        # trace distribution; everything else warms up on a short slice.
        # A shard spec hints on the *full* trace's slice regardless of
        # its window so every shard builds the serial run's allocation.
        if self.shard is not None or self.space_shard is not None:
            trace = self.make_full_trace()
        if scheme_name == "arlo-global":
            hint = trace
        else:
            hint = trace.slice_time(0, seconds(self.hint_s))
        num_gpus = self.num_gpus
        if self.space_shard is not None and self.space_partition == "request":
            # Scaled replica: an even GPU slice (remainder spread over
            # the first shards) under 1/count of the arrivals keeps
            # per-GPU load — and therefore congestion behaviour —
            # aligned with the serial run.
            index, count = self.space_shard
            num_gpus = num_gpus // count + (1 if index < num_gpus % count else 0)
        scheme = build_scheme(
            scheme_name,
            self.model,
            num_gpus,
            trace_hint=hint if len(hint) else None,
            registry=self.make_registry(),
            request_scheduler_config=RequestSchedulerConfig(),
            runtime_scheduler_config=RuntimeSchedulerConfig(
                period_ms=seconds(self.scheduler_period_s),
                solver_ladder=self.solver_ladder,
                solve_deadline_ms=self.solve_deadline_ms,
                forecast=self.forecast,
            ),
        )
        if self.space_shard is not None and self.space_partition == "level":
            self._mask_foreign_levels(scheme)
        return scheme

    def _mask_foreign_levels(self, scheme: Scheme) -> None:
        """Reduce a full scheme to this shard's owned MLQ levels.

        The scheme is built exactly as the serial run would (same
        allocation, same instances), then every instance of a foreign
        level is retired and its GPU released at t=0 — so the shard's
        owned levels are *identical* to the serial run's, and its GPU
        integral only counts owned hardware.
        """
        index, count = self.space_shard
        if len(scheme.mlq) < 2:
            raise ConfigurationError(
                "level partition needs a multi-level scheme "
                "(st/dt have a single level)"
            )
        if scheme.runtime_scheduler is not None:
            raise ConfigurationError(
                "level partition requires a static scheme — a periodic "
                "Runtime Scheduler would redeploy the foreign levels "
                "(use e.g. 'arlo-even' or 'arlo-global')"
            )
        for inst in list(scheme.cluster.instances.values()):
            if inst.runtime_index % count != index:
                if scheme.mlq.contains(inst):
                    scheme.mlq.remove(inst)
                gpu = scheme.cluster.retire_instance(inst)
                scheme.cluster.release_gpu(gpu.gpu_id, 0.0)

    def sim_config(self) -> SimulationConfig:
        warmup_ms = seconds(self.warmup_s)
        failures = self.failures
        if self.shard is not None:
            start, end = self.shard_window_ms()
            # Shard-local warm-up: the serial run's warm-up window maps
            # onto whichever shard(s) it overlaps.
            warmup_ms = min(max(warmup_ms - start, 0.0), end - start)
            if failures is not None:
                failures = failures.window(start, end)
                if not len(failures):
                    failures = None
        kwargs = {}
        if self.retry != "default":
            kwargs["retry"] = self.retry
        if self.generative:
            kwargs["generative"] = build_generative_config(
                max_batch=self.max_batch,
                continuous_batching=self.continuous_batching,
                chunk_steps=self.chunk_steps,
                disagg=self.disagg,
                transfer_ms_per_token=self.transfer_ms_per_token,
                prefill_fraction=self.prefill_fraction,
            )
        return SimulationConfig(
            enable_autoscaler=self.autoscaler is not None,
            autoscaler=self.autoscaler,
            warmup_ms=warmup_ms,
            failures=failures,
            **kwargs,
        )


def space_partition_owners(
    spec: ExperimentSpec, trace: Trace, num_shards: int
) -> np.ndarray:
    """Space-shard owner of every request in ``trace``.

    ``"request"`` partition: round-robin by request index (every shard
    sees the full length distribution at ``1/num_shards`` of the
    rate). ``"level"`` partition: owner is the request's ideal MLQ
    level modulo ``num_shards``, computed against the same polymorph
    registry the multi-level schemes deploy. Shared by
    :meth:`ExperimentSpec.make_trace` (inside each worker) and the
    spatial driver's empty-shard detection (in the parent), so both
    sides agree on the split by construction.
    """
    if spec.space_partition == "request":
        return np.arange(len(trace)) % num_shards
    registry = spec.make_registry()
    if registry is None:
        registry = build_polymorph_set(get_model(spec.model))
    levels = np.searchsorted(
        registry.bin_edges(), trace.length, side="left"
    )
    return levels % num_shards


def run_experiment(
    spec: ExperimentSpec, schemes: tuple[str, ...] | None = None
) -> dict[str, SimulationResult]:
    """Run every scheme of ``spec`` on one shared trace."""
    trace = spec.make_trace()
    results: dict[str, SimulationResult] = {}
    for name in schemes or spec.schemes:
        scheme = spec.make_scheme(name, trace)
        results[name] = run_simulation(scheme, trace, spec.sim_config())
    return results


def run_single(
    spec: ExperimentSpec, scheme_name: str
) -> tuple[Scheme, SimulationResult]:
    """Run one scheme, returning the scheme for post-hoc inspection."""
    trace = spec.make_trace()
    scheme = spec.make_scheme(scheme_name, trace)
    return scheme, run_simulation(scheme, trace, spec.sim_config())


def _run_job(args) -> tuple[str, str, object]:
    """One (spec, scheme) unit of work — module-level so it pickles."""
    spec, scheme_name, summarize = args
    results = run_experiment(spec, schemes=(scheme_name,))
    payload = results[scheme_name]
    if summarize is not None:
        payload = summarize(payload)
    return spec.name, scheme_name, payload


def run_experiments(
    specs: list[ExperimentSpec],
    schemes: tuple[str, ...] | None = None,
    workers: int = 1,
    summarize: Callable[[SimulationResult], object] | None = None,
) -> dict[str, dict[str, object]]:
    """Run every (spec × scheme) scenario, optionally in parallel.

    Simulations are single-threaded and independent, so scenario fleets
    parallelise perfectly across processes: each worker rebuilds its
    trace and scheme locally from the picklable spec, and only the
    (optionally ``summarize``-reduced) results cross process
    boundaries. Returns ``{spec.name: {scheme: payload}}``.

    ``workers=1`` runs everything inline (no fork) — use that under
    pytest or anywhere process pools are awkward. With ``workers > 1``
    prefer a module-level ``summarize`` (e.g.
    :func:`repro.io.results.result_to_dict`): it then runs inside the
    workers so payloads stay small. Lambdas and closures don't pickle,
    so they are applied in the parent instead — correct, but the full
    ``SimulationResult`` crosses the process boundary first.
    """
    if not specs:
        raise ConfigurationError("no experiments to run")
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigurationError("spec names must be unique within a batch")
    shipped = summarize
    late_summarize = None
    if workers > 1 and summarize is not None:
        try:
            pickle.dumps(summarize)
        except Exception:
            shipped, late_summarize = None, summarize
    jobs = [
        (spec, scheme, shipped)
        for spec in specs
        for scheme in (schemes or spec.schemes)
    ]
    out: dict[str, dict[str, object]] = {s.name: {} for s in specs}
    if workers == 1:
        completed = map(_run_job, jobs)
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            completed = list(pool.map(_run_job, jobs))
    for spec_name, scheme_name, payload in completed:
        if late_summarize is not None:
            payload = late_summarize(payload)
        out[spec_name][scheme_name] = payload
    return out
