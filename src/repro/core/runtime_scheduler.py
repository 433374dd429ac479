"""The periodic Runtime Scheduler (§3.3).

Every decision period (120 s by default) the scheduler:

1. reads the demand estimate ``Q`` from the :class:`DemandEstimator`;
2. solves Eqs. 1–7 for the optimal allocation ``N`` given the GPUs
   currently provisioned;
3. emits a minimal-change :class:`ReplacementPlan` moving the cluster
   from its current deployment to ``N``.

It owns no clock — the simulator (or a real control loop) calls
:meth:`RuntimeScheduler.step` on its schedule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.cluster.instance import InstanceStatus
from repro.cluster.replacement import ReplacementPlan, plan_replacement
from repro.cluster.state import ClusterState
from repro.core.allocation import AllocationProblem, AllocationResult, solve_allocation
from repro.core.demand import DemandEstimator
from repro.core.pool_split import PoolSplit, PoolSplitConfig, solve_pool_split
from repro.errors import ConfigurationError, InfeasibleError, SolverError
from repro.perf.anytime import resolve_ladder, solve_anytime
from repro.perf.cache import AllocationCache, profile_fingerprint
from repro.perf.forecast import DemandForecaster
from repro.runtimes.registry import RuntimeRegistry
from repro.units import SECOND


@dataclass(frozen=True)
class SolverIncident:
    """One survived solver failure: when, why, what was held."""

    time_ms: float
    error: str
    held_allocation: tuple[int, ...]


@dataclass(frozen=True)
class RuntimeSchedulerConfig:
    """Runtime Scheduler knobs (paper default period: 120 s)."""

    period_ms: float = 120 * SECOND
    solver: str = "auto"
    replacement_batch_size: int = 2
    #: Memoize solved allocations by canonical demand (see repro.perf.cache).
    enable_cache: bool = True
    #: Seed the solver with the previous allocation / nearest cached one.
    warm_start: bool = True
    #: Cache entries expire after this many decision periods.
    cache_ttl_periods: float = 8.0
    cache_max_entries: int = 128
    #: Solve through the deadline-bounded anytime ladder
    #: (:mod:`repro.perf.anytime`) instead of a single solver.
    solver_ladder: bool = False
    #: Wall-clock budget per ladder solve (and per pre-solve).
    solve_deadline_ms: float = 50.0
    #: Rung names for the ladder; None uses the registry default.
    ladder_rungs: tuple[str, ...] | None = None
    #: Approximate cache hits (ladder mode only): accept a cached
    #: allocation whose demand is within this relative L1 distance of
    #: the live one, after re-checking feasibility and re-evaluating
    #: the objective. 0 disables approximate matching.
    cache_tolerance: float = 0.02
    #: Forecast next period's demand and pre-solve it into the cache.
    forecast: bool = False
    #: EWMA level smoothing for the forecaster.
    forecast_alpha: float = 0.35
    #: Seasonal cycle length in periods (0 = no seasonal component).
    forecast_season: int = 0

    def __post_init__(self) -> None:
        if self.period_ms <= 0:
            raise ConfigurationError("period must be positive")
        if self.replacement_batch_size < 1:
            raise ConfigurationError("replacement batch size must be >= 1")
        if self.cache_ttl_periods <= 0:
            raise ConfigurationError("cache TTL must be positive")
        if self.cache_max_entries < 1:
            raise ConfigurationError("cache needs room for at least one entry")
        if self.solve_deadline_ms <= 0:
            raise ConfigurationError("solve deadline must be positive")
        if self.cache_tolerance < 0:
            raise ConfigurationError("cache tolerance cannot be negative")
        if self.ladder_rungs is not None:
            resolve_ladder(self.ladder_rungs)  # validate names eagerly
        if self.forecast and not self.solver_ladder:
            raise ConfigurationError(
                "forecast pre-solving requires solver_ladder=True "
                "(pre-solves run through the deadline-bounded ladder)"
            )
        if self.forecast and not self.enable_cache:
            raise ConfigurationError(
                "forecast pre-solving is pointless without the allocation "
                "cache — enable_cache=True is required"
            )


@dataclass
class RuntimeScheduler:
    """Demand → allocation → replacement plan, once per period."""

    registry: RuntimeRegistry
    estimator: DemandEstimator
    config: RuntimeSchedulerConfig = field(default_factory=RuntimeSchedulerConfig)
    #: History of (time, demand, allocation) decisions, for Fig. 12.
    history: list[tuple[float, np.ndarray, np.ndarray]] = field(default_factory=list)
    #: Survived solver failures (graceful degradation, see :meth:`step`).
    incidents: list[SolverIncident] = field(default_factory=list)
    #: Count of periods served by the hold-allocation fallback.
    solver_fallbacks: int = 0
    #: Pending injected failures (chaos testing), see
    #: :meth:`inject_solver_failures`.
    _forced_failures: int = field(default=0, repr=False)
    #: Memoized solves (None when disabled by config).
    cache: AllocationCache | None = field(default=None, repr=False)
    #: Demand forecaster driving pre-solves (None unless config.forecast).
    forecaster: DemandForecaster | None = field(default=None, repr=False)
    #: Anytime-mode counters; see :meth:`anytime_stats`.
    _anytime: dict = field(default_factory=dict, repr=False)
    #: Per-period decide wall times in ladder mode (ms), for tail stats.
    solve_ms_history: list[float] = field(default_factory=list, repr=False)
    #: Detail of the most recent pre-solve attempt (sim timeline hook).
    last_presolve: dict | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.config.enable_cache and self.cache is None:
            self.cache = AllocationCache(
                ttl_ms=self.config.cache_ttl_periods * self.config.period_ms,
                max_entries=self.config.cache_max_entries,
            )
        if self.config.forecast and self.forecaster is None:
            self.forecaster = DemandForecaster(
                num_bins=len(self.registry),
                alpha=self.config.forecast_alpha,
                season_length=self.config.forecast_season,
            )
        if self.config.solver_ladder:
            self._anytime = {
                "periods": 0,
                "boundary_exact_hits": 0,
                "boundary_approx_hits": 0,
                "boundary_forecast_hits": 0,
                "solves": 0,
                "deadline_hits": 0,
                "deadline_misses": 0,
                "presolves": 0,
                "presolve_covered": 0,
                "presolve_failures": 0,
            }

    def inject_solver_failures(self, count: int = 1) -> None:
        """Make the next ``count`` solves raise (fault injection)."""
        if count < 1:
            raise ConfigurationError("count must be >= 1")
        self._forced_failures += count

    def invalidate_cache(self) -> int:
        """Drop memoized solves (profile/fleet change hook). Returns count.

        Budget and profile changes already miss naturally (both are in
        the cache key); this is the explicit escape hatch for anything
        else an operator believes stale.
        """
        return self.cache.invalidate() if self.cache is not None else 0

    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters (empty dict when caching is off)."""
        return self.cache.stats() if self.cache is not None else {}

    def _warm_seed(
        self,
        now_ms: float,
        num_gpus: int,
        fingerprint: str | None,
        demand: np.ndarray,
    ) -> np.ndarray | None:
        """Pick a warm-start allocation: last period's, else nearest cached.

        Seeds are *candidates* — the solver validates feasibility against
        the current problem and silently ignores unusable ones.
        """
        if not self.config.warm_start:
            return None
        if self.history:
            prev = self.history[-1][2]
            if prev.size == demand.size and int(prev.sum()) == num_gpus:
                return prev
        if self.cache is not None and fingerprint is not None:
            return self.cache.nearest(now_ms, num_gpus, fingerprint, demand)
        return None

    def decide(self, now_ms: float, num_gpus: int) -> AllocationResult:
        """Solve the allocation for the current demand estimate.

        Falls back to relaxed Eq. 3 bounds when demand outstrips the
        provisioned GPUs (the autoscaler, not this solver, fixes
        sustained overload).

        With caching enabled, an exact (demand, budget, profiles,
        solver) match replays the memoized result — solvers are
        deterministic, so the replay is what a fresh solve would have
        returned. Misses are solved warm-started from the previous
        period's allocation (or the cache's nearest neighbour) and then
        memoized. The cache key uses ``relax=False`` regardless of
        whether the relaxed fallback triggered: the strict→relaxed
        ladder is itself a deterministic function of the problem, and
        the stored result records its ``relaxed`` provenance.
        """
        if self._forced_failures > 0:
            self._forced_failures -= 1
            raise SolverError("injected solver failure (fault plan)")
        if self.config.solver_ladder:
            return self._decide_anytime(now_ms, num_gpus)
        demand = self.estimator.demand(now_ms)
        problem = AllocationProblem.from_profiles(
            num_gpus=num_gpus, demand=demand, profiles=list(self.registry)
        )
        fingerprint = key = None
        if self.cache is not None:
            fingerprint = profile_fingerprint(
                problem.capacity, problem.service_ms, problem.overhead_ms
            )
            key = AllocationCache.key_for(
                demand, num_gpus, fingerprint, self.config.solver, False
            )
            entry = self.cache.lookup(now_ms, key)
            if entry is not None:
                result = replace(
                    entry.result,
                    allocation=entry.result.allocation.copy(),
                    stats={**entry.result.stats, "cache_hit": True},
                )
                self.history.append((now_ms, demand, result.allocation.copy()))
                return result
        warm = self._warm_seed(now_ms, num_gpus, fingerprint, demand)
        try:
            result = solve_allocation(
                problem, method=self.config.solver, warm_start=warm
            )
        except InfeasibleError:
            result = solve_allocation(
                problem, method=self.config.solver, relax=True, warm_start=warm
            )
        if self.cache is not None:
            self.cache.store(now_ms, key, num_gpus, fingerprint, demand, result)
        self.history.append((now_ms, demand, result.allocation.copy()))
        return result

    def _decide_anytime(self, now_ms: float, num_gpus: int) -> AllocationResult:
        """Ladder-mode decide: cache (exact → approximate) → budgeted climb.

        Every period boundary resolves in one of three ways, cheapest
        first:

        1. **exact hit** — canonical demand matches a cached solve
           (possibly one the forecaster pre-solved) byte-for-byte;
        2. **approximate hit** — a cached allocation for a demand within
           ``cache_tolerance`` relative L1 distance, accepted only after
           re-checking Eq. 2/3/7 feasibility against the *live* problem
           and re-evaluating the objective on it;
        3. **anytime solve** — :func:`repro.perf.anytime.solve_anytime`
           under ``solve_deadline_ms``, warm-started from the previous
           allocation or the nearest cached neighbour.

        The realized demand is always fed to the forecaster first, so
        pre-solves chase the drift rather than lag it.
        """
        t0 = time.perf_counter()
        stats = self._anytime
        stats["periods"] += 1
        demand = self.estimator.demand(now_ms)
        if self.forecaster is not None:
            self.forecaster.observe(demand)
        problem = AllocationProblem.from_profiles(
            num_gpus=num_gpus, demand=demand, profiles=list(self.registry)
        )
        fingerprint = key = None
        if self.cache is not None:
            fingerprint = profile_fingerprint(
                problem.capacity, problem.service_ms, problem.overhead_ms
            )
            key = AllocationCache.key_for(
                demand, num_gpus, fingerprint, "anytime", False
            )
            entry = self.cache.lookup(now_ms, key)
            if entry is not None:
                stats["boundary_exact_hits"] += 1
                if entry.result.stats.get("presolved"):
                    stats["boundary_forecast_hits"] += 1
                result = replace(
                    entry.result,
                    allocation=entry.result.allocation.copy(),
                    stats={**entry.result.stats, "cache_hit": True},
                )
                self.history.append((now_ms, demand, result.allocation.copy()))
                self.solve_ms_history.append((time.perf_counter() - t0) * 1e3)
                return result
            if self.config.cache_tolerance > 0:
                near = self.cache.nearest_within(
                    now_ms, num_gpus, fingerprint, demand,
                    tolerance=self.config.cache_tolerance, method="anytime",
                )
                if near is not None and problem.is_feasible(
                    near.result.allocation, relaxed=near.result.relaxed
                ):
                    stats["boundary_approx_hits"] += 1
                    if near.result.stats.get("presolved"):
                        stats["boundary_forecast_hits"] += 1
                    allocation = near.result.allocation.copy()
                    # The cached optimum was for a *nearby* demand:
                    # re-evaluate against the live cascade so reported
                    # objectives are honest.
                    result = replace(
                        near.result,
                        allocation=allocation,
                        objective=problem.evaluate(allocation),
                        stats={
                            **near.result.stats,
                            "cache_hit": True,
                            "approx_hit": True,
                        },
                    )
                    self.history.append((now_ms, demand, allocation.copy()))
                    self.solve_ms_history.append((time.perf_counter() - t0) * 1e3)
                    return result
        warm = self._warm_seed(now_ms, num_gpus, fingerprint, demand)
        deadline_s = self.config.solve_deadline_ms / 1e3
        try:
            result = solve_anytime(
                problem, deadline_s=deadline_s,
                ladder=self.config.ladder_rungs, warm_start=warm,
            )
        except InfeasibleError:
            result = solve_anytime(
                problem, deadline_s=deadline_s,
                ladder=self.config.ladder_rungs, relax=True, warm_start=warm,
            )
        stats["solves"] += 1
        if result.stats.get("deadline_hit"):
            stats["deadline_hits"] += 1
        else:
            stats["deadline_misses"] += 1
        if self.cache is not None:
            self.cache.store(now_ms, key, num_gpus, fingerprint, demand, result)
        self.history.append((now_ms, demand, result.allocation.copy()))
        self.solve_ms_history.append((time.perf_counter() - t0) * 1e3)
        return result

    def decide_pool_split(
        self,
        now_ms: float,
        total_gpus: int,
        *,
        decode_occupancy: float,
        decode_slots_per_gpu: float,
        split_config: PoolSplitConfig | None = None,
    ) -> tuple[PoolSplit, str] | None:
        """Solve the coupled prefill/decode allocation for one period.

        The disaggregated data plane's generalization of :meth:`decide`
        (Arrow, arxiv 2505.11916): split the GPU budget across the two
        pools, then allocate the prefill pool's share over the runtime
        staircase. The outer split is the deterministic greedy scan of
        :func:`repro.core.pool_split.solve_pool_split` driven by the
        prompt-demand estimate plus the live decode-occupancy signal;
        when the demand forecaster is on, the split is planned against
        the *predicted* next-period demand (the split takes effect over
        the coming period, so chasing the forecast beats lagging the
        estimate — same solve-ahead idea as :meth:`presolve_forecast`).

        With ``solver_ladder=True`` the chosen split's prefill
        allocation is refined by the deadline-bounded anytime ladder,
        warm-started from the scan's allocation; refinement never
        changes the split itself, so the outer loop stays
        wall-clock-free and bit-deterministic.

        Returns ``(split, provenance)``, or ``None`` before any demand
        has been observed (the caller holds the current pool roles —
        the same zero-demand hold as :meth:`step`). Injected solver
        failures raise :class:`SolverError` exactly as :meth:`decide`
        does, so chaos plans exercise the disagg hold path too.
        """
        if self._forced_failures > 0:
            self._forced_failures -= 1
            raise SolverError("injected solver failure (fault plan)")
        if self.estimator.observed == 0:
            return None
        demand = self.estimator.demand(now_ms)
        provenance = "greedy-scan"
        plan_demand = demand
        if self.forecaster is not None:
            self.forecaster.observe(demand)
            predicted = self.forecaster.predict()
            if predicted is not None:
                plan_demand = predicted
                provenance = "greedy-scan+forecast"
        problem = AllocationProblem.from_profiles(
            num_gpus=total_gpus, demand=plan_demand,
            profiles=list(self.registry),
        )
        split = solve_pool_split(
            problem,
            decode_occupancy=decode_occupancy,
            decode_slots_per_gpu=decode_slots_per_gpu,
            config=split_config,
        )
        if self.config.solver_ladder:
            sub = replace(problem, num_gpus=split.prefill_gpus)
            try:
                refined = solve_anytime(
                    sub,
                    deadline_s=self.config.solve_deadline_ms / 1e3,
                    ladder=self.config.ladder_rungs,
                    relax=split.relaxed,
                    warm_start=split.prefill_allocation,
                )
            except (SolverError, InfeasibleError):
                refined = None
            if (
                refined is not None
                and refined.objective <= split.prefill_objective
                and sub.is_feasible(refined.allocation,
                                    relaxed=split.relaxed)
            ):
                split = replace(
                    split,
                    prefill_allocation=refined.allocation,
                    prefill_objective=refined.objective,
                    solver="greedy-scan+anytime",
                )
                provenance += f"+anytime-{refined.stats.get('rung', '?')}"
        self.history.append(
            (now_ms, plan_demand, split.prefill_allocation.copy())
        )
        return split, provenance

    def presolve_forecast(self, now_ms: float, num_gpus: int) -> dict | None:
        """Pre-solve the forecast next-period demand into the cache.

        The idle-time half of the anytime control plane (the Shockwave
        ``future_nrounds`` idea): between period boundaries, predict the
        next demand vector and run the same budgeted ladder on it, so
        the boundary finds a warm entry even on genuinely new demand.
        Skipped when the prediction is already covered (exactly or
        within ``cache_tolerance``). Failures are swallowed into a
        counter — a broken pre-solve must never surface at a boundary.

        Returns a detail dict (also kept as :attr:`last_presolve`) or
        None when forecasting is disabled / no prediction exists yet.
        """
        self.last_presolve = None
        if self.forecaster is None or self.cache is None:
            return None
        predicted = self.forecaster.predict()
        if predicted is None:
            return None
        detail: dict = {"time_ms": now_ms}
        profiles = list(self.registry)
        problem = AllocationProblem.from_profiles(
            num_gpus=num_gpus, demand=predicted, profiles=profiles
        )
        fingerprint = profile_fingerprint(
            problem.capacity, problem.service_ms, problem.overhead_ms
        )
        key = AllocationCache.key_for(
            predicted, num_gpus, fingerprint, "anytime", False
        )
        covered = self.cache.contains(now_ms, key)
        if not covered and self.config.cache_tolerance > 0:
            # Skip only when an entry sits well *inside* tolerance
            # (half of it): the realized demand lands near the
            # prediction, not on it, and an entry at the tolerance edge
            # for the prediction is a coin-flip for the boundary.
            covered = (
                self.cache.nearest_within(
                    now_ms, num_gpus, fingerprint, predicted,
                    tolerance=self.config.cache_tolerance / 2.0,
                    method="anytime", record=False,
                )
                is not None
            )
        if covered:
            self._anytime["presolve_covered"] += 1
            detail.update(outcome="covered")
            self.last_presolve = detail
            return detail
        warm = self._warm_seed(now_ms, num_gpus, fingerprint, predicted)
        try:
            result = solve_anytime(
                problem,
                deadline_s=self.config.solve_deadline_ms / 1e3,
                ladder=self.config.ladder_rungs,
                warm_start=warm,
            )
        except SolverError as exc:
            self._anytime["presolve_failures"] += 1
            detail.update(outcome="failed", error=f"{type(exc).__name__}: {exc}")
            self.last_presolve = detail
            return detail
        stored = replace(
            result,
            allocation=result.allocation.copy(),
            stats={**result.stats, "presolved": True},
        )
        self.cache.store(now_ms, key, num_gpus, fingerprint, predicted, stored)
        self._anytime["presolves"] += 1
        detail.update(
            outcome="stored",
            rung=result.stats.get("rung"),
            elapsed_ms=result.stats.get("elapsed_ms"),
            deadline_hit=result.stats.get("deadline_hit"),
        )
        self.last_presolve = detail
        return detail

    def anytime_stats(self) -> dict:
        """Ladder-mode counters (empty dict outside ladder mode).

        ``boundary_hit_rate`` counts period boundaries resolved from
        cache (exact or approximate) out of all ladder periods;
        ``deadline_hit_rate`` counts boundaries resolved within the
        deadline — cache hits trivially, solves by measured wall clock.
        """
        if not self._anytime:
            return {}
        out = dict(self._anytime)
        periods = out["periods"]
        hits = out["boundary_exact_hits"] + out["boundary_approx_hits"]
        out["boundary_hit_rate"] = hits / periods if periods else 0.0
        out["deadline_hit_rate"] = (
            (hits + out["deadline_hits"]) / periods if periods else 0.0
        )
        if self.forecaster is not None:
            out["forecast"] = self.forecaster.error_stats()
        return out

    def step(
        self, now_ms: float, state: ClusterState
    ) -> tuple[AllocationResult, ReplacementPlan]:
        """One scheduling period: decide and plan the deployment change.

        The allocation is solved for the instances currently deployable
        (active instances), since GPUs amid replacement or draining
        rejoin through their own lifecycle.
        """
        deployable = int(state.allocation().sum())
        if deployable < 1:
            # A fleet-wide outage the fleet comes back from: suspended
            # instances resume with their runtimes, and a crashed
            # instance whose GPU is still provisioned (free, unreleased)
            # redeploys there on recovery. Keep the current deployment.
            if state.free_gpus() or any(
                inst.status is InstanceStatus.SUSPENDED
                for inst in state.instances.values()
            ):
                return self._hold(now_ms, state, solver="hold")
            raise ConfigurationError("cluster has no active instances")
        if self.estimator.observed == 0:
            # Zero demand makes every allocation optimal (cost 0); keep
            # the current deployment instead of churning replacements
            # toward an arbitrary tie-broken optimum.
            return self._hold(now_ms, state, solver="hold")
        try:
            result = self.decide(now_ms, deployable)
        except SolverError as exc:
            # Graceful degradation: a broken control plane must never
            # take the data plane down. Keep serving on the previous
            # allocation and record the incident for the operators.
            self.solver_fallbacks += 1
            self.incidents.append(SolverIncident(
                time_ms=now_ms,
                error=f"{type(exc).__name__}: {exc}",
                held_allocation=tuple(int(n) for n in state.allocation()),
            ))
            return self._hold(now_ms, state, solver="fallback-hold")
        plan = plan_replacement(
            state, result.allocation, batch_size=self.config.replacement_batch_size
        )
        if self.config.forecast:
            # Idle-time solve-ahead: the boundary work is done, so spend
            # (budgeted) time making the *next* boundary a cache hit.
            self.presolve_forecast(now_ms, deployable)
        return result, plan

    def _hold(
        self, now_ms: float, state: ClusterState, solver: str
    ) -> tuple[AllocationResult, ReplacementPlan]:
        """Keep the current deployment (fleet-wide outage, zero demand
        or solver failure)."""
        current = state.allocation()
        result = AllocationResult(
            allocation=current,
            objective=0.0,
            solver=solver,
            solve_time_s=0.0,
        )
        self.history.append(
            (now_ms, self.estimator.demand(now_ms), current.copy())
        )
        return result, plan_replacement(state, current)

    @staticmethod
    def provenance_of(result: AllocationResult) -> str:
        """How an allocation was obtained, for the control timeline.

        One of ``hold`` / ``fallback-hold`` (no solve ran),
        ``cache-hit`` (memoized), ``warm-start`` (B&B seeded from a
        neighbouring solve), or ``cold`` (full solve from scratch).

        Ladder-mode results refine the taxonomy: ``forecast-hit`` (the
        entry was pre-solved from a forecast), ``approx-hit`` (cached
        allocation within demand tolerance, re-validated), and
        ``anytime-<rung>`` (budgeted climb; the rung names which level
        produced the incumbent).
        """
        if result.solver in ("hold", "fallback-hold"):
            return result.solver
        if result.stats.get("cache_hit"):
            if result.stats.get("presolved"):
                return "forecast-hit"
            if result.stats.get("approx_hit"):
                return "approx-hit"
            return "cache-hit"
        if result.solver == "anytime":
            return f"anytime-{result.stats.get('rung', 'unknown')}"
        if result.stats.get("warm_started"):
            return "warm-start"
        return "cold"

    def allocation_timeline(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, allocations) from the decision history (Fig. 12 series)."""
        if not self.history:
            return np.empty(0), np.empty((0, len(self.registry)), dtype=np.int64)
        times = np.array([h[0] for h in self.history])
        allocs = np.stack([h[2] for h in self.history])
        return times, allocs
