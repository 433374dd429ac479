"""The Runtime Scheduler's optimisation problem (paper Eqs. 1–7).

Given ``G`` GPUs, ``I`` runtimes sorted by ``max_length``, per-bin
demand ``Q_i`` (average arrivals within one SLO window whose ideal
runtime is ``i``) and profiled performance (capacity ``M_i``, latency
map ``L_i``), choose the instance counts ``N_i`` minimising

    Σ_i  L_i(B_i) · C_i                                     (Eq. 1)

subject to the demotion-cascade semantics:

    Σ N_i = G                                               (Eq. 2)
    N_i ≥ ⌊Q_i / M_i⌋                                       (Eq. 3)
    R_i = max(R_{i-1} + Q_i − N_i·M_i, 0)                   (Eq. 4)
    C_i = min(R_{i-1} + Q_i, N_i·M_i)   (C_I takes the rest) (Eq. 5)
    B_i = C_i / N_i                                          (Eq. 6)
    N_I ≥ 1                                                  (Eq. 7)

The paper feeds this to GUROBI. We provide five interchangeable
solvers:

``greedy``
    O(I) first-fit: cascade-aware instance counts plus a proportional
    spread of leftover GPUs. The bottom rung of the anytime ladder
    (:mod:`repro.perf.anytime`) — always finishes, never optimal.
``dp``
    Exact dynamic program over (runtime index, GPUs used) states with
    Pareto-label pruning on (cost so far, carried-over demand ``R``).
    Provably optimal: dominance is sound because both the remaining
    cost and the cascade are monotone non-decreasing in ``R``.
``local``
    Greedy seed + steepest-descent pairwise moves; near-optimal and
    fast at 1000-GPU scale (Table 2 timings).
``brute``
    Exhaustive enumeration, used to certify the DP in tests.
``milp``
    Encoding on :mod:`repro.solver` with indicator binaries for the
    Eq. 5 ``min`` and tangent-epigraph costs; a validation path
    demonstrating the GUROBI-replacement substrate.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    InfeasibleError,
    SolverError,
)
from repro.runtimes.profiler import RuntimeProfile
from repro.solver.model import LinExpr, Model
from repro.solver.piecewise import tangent_lines

_EPS = 1e-9


class _BudgetExpired(Exception):
    """Internal control-flow signal: a solver's wall-clock budget ran out."""


@dataclass(frozen=True)
class AllocationProblem:
    """One instance of Eqs. 1–7."""

    num_gpus: int
    demand: np.ndarray  # Q_i, arrivals per SLO window, float
    capacity: np.ndarray  # M_i, int
    service_ms: np.ndarray  # per-request execution time of runtime i
    overhead_ms: float = 0.8

    def __post_init__(self) -> None:
        demand = np.asarray(self.demand, dtype=float)
        capacity = np.asarray(self.capacity, dtype=np.int64)
        service = np.asarray(self.service_ms, dtype=float)
        if not (demand.shape == capacity.shape == service.shape):
            raise ConfigurationError("demand/capacity/service must align")
        if demand.ndim != 1 or demand.size == 0:
            raise ConfigurationError("need at least one runtime")
        if np.any(demand < 0):
            raise ConfigurationError("demand cannot be negative")
        if np.any(capacity < 1):
            raise ConfigurationError("capacities must be >= 1")
        if np.any(service <= 0):
            raise ConfigurationError("service times must be positive")
        if self.num_gpus < 1:
            raise ConfigurationError("need at least one GPU")
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "capacity", capacity)
        object.__setattr__(self, "service_ms", service)

    @classmethod
    def from_profiles(
        cls, num_gpus: int, demand: np.ndarray, profiles: list[RuntimeProfile]
    ) -> "AllocationProblem":
        """Build from the offline profiler's output."""
        if len(profiles) != len(demand):
            raise ConfigurationError("one demand entry per profiled runtime")
        return cls(
            num_gpus=num_gpus,
            demand=np.asarray(demand, dtype=float),
            capacity=np.array([p.capacity for p in profiles]),
            service_ms=np.array([p.service_ms for p in profiles]),
            overhead_ms=profiles[0].overhead_ms,
        )

    @property
    def num_runtimes(self) -> int:
        return int(self.demand.size)

    # -- objective ------------------------------------------------------------
    def mean_latency(self, index: int, batch: float) -> float:
        """``L_i(B)`` — see :meth:`RuntimeProfile.latency_for_batch`."""
        b = max(batch, 1.0)
        return self.overhead_ms + self.service_ms[index] * (b + 1.0) / 2.0

    def serve_cost(self, index: int, served: float, n_instances: int) -> float:
        """``L_i(C/N)·C`` for one runtime; 0 when nothing is served."""
        if served <= _EPS:
            return 0.0
        if n_instances <= 0:
            return float("inf")
        return self.mean_latency(index, served / n_instances) * served

    def evaluate(self, allocation: np.ndarray) -> float:
        """Objective value of an allocation under the Eq. 4–6 cascade.

        Returns ``inf`` for allocations that strand demand on runtimes
        with zero instances (only possible at the last runtime).
        """
        allocation = np.asarray(allocation, dtype=np.int64)
        if allocation.shape != self.demand.shape:
            raise ConfigurationError("allocation arity mismatch")
        if np.any(allocation < 0):
            raise ConfigurationError("allocation cannot be negative")
        last = self.num_runtimes - 1
        carry = 0.0  # R_{i-1}
        total = 0.0
        for i in range(self.num_runtimes):
            arrive = carry + self.demand[i]
            cap = float(allocation[i]) * float(self.capacity[i])
            if i < last:
                served = min(arrive, cap)
                carry = max(arrive - cap, 0.0)
            else:
                served = arrive  # Eq. 5: the last runtime takes everything
                carry = 0.0
            cost = self.serve_cost(i, served, int(allocation[i]))
            if cost == float("inf"):
                return float("inf")
            total += cost
        return total

    # -- constraints -----------------------------------------------------------
    def lower_bounds(self, relax: bool = False) -> np.ndarray:
        """Eq. 3 ``⌊Q_i/M_i⌋`` bounds plus Eq. 7, optionally relaxed to fit.

        When the bounds alone exceed ``G`` the strict problem is
        infeasible; with ``relax=True`` the bounds are trimmed from the
        shortest runtimes upward (their overflow can always cascade to
        longer runtimes), preserving Eq. 7.
        """
        lb = np.floor(self.demand / self.capacity).astype(np.int64)
        lb[-1] = max(lb[-1], 1)  # Eq. 7
        excess = int(lb.sum()) - self.num_gpus
        if excess <= 0:
            return lb
        if not relax:
            raise InfeasibleError(
                f"Eq. 3 lower bounds need {lb.sum()} GPUs, only "
                f"{self.num_gpus} available"
            )
        for i in range(self.num_runtimes - 1):
            take = min(excess, int(lb[i]))
            lb[i] -= take
            excess -= take
            if excess == 0:
                break
        if excess > 0:
            take = min(excess, int(lb[-1]) - 1)
            lb[-1] -= take
            excess -= take
        if excess > 0:
            raise InfeasibleError(
                f"even one instance per mandatory runtime exceeds "
                f"{self.num_gpus} GPUs"
            )
        return lb

    def is_feasible(self, allocation: np.ndarray, relaxed: bool = False) -> bool:
        """Check Eqs. 2, 3 and 7 for a candidate allocation.

        ``False`` (never :class:`InfeasibleError`) when the bounds
        themselves cannot fit in ``num_gpus``: then no allocation is
        feasible.
        """
        allocation = np.asarray(allocation, dtype=np.int64)
        if allocation.shape != self.demand.shape or np.any(allocation < 0):
            return False
        if int(allocation.sum()) != self.num_gpus:
            return False
        if allocation[-1] < 1:
            return False
        try:
            lb = self.lower_bounds(relax=relaxed)
        except InfeasibleError:
            return False
        return bool(np.all(allocation >= lb))


@dataclass
class AllocationResult:
    """Solved allocation with provenance."""

    allocation: np.ndarray
    objective: float
    solver: str
    solve_time_s: float
    relaxed: bool = False
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Exact dynamic program
# ---------------------------------------------------------------------------

def _warm_allocation(
    problem: AllocationProblem, warm_start, relax: bool
) -> np.ndarray | None:
    """Validate a warm-start allocation; None when unusable.

    Feasibility is *checked*, never assumed — the previous period's
    allocation may violate this period's Eq. 3 bounds, and an
    infeasible incumbent would make bound-based pruning unsound.
    """
    if warm_start is None:
        return None
    warm = np.asarray(warm_start, dtype=np.int64)
    if warm.shape != problem.demand.shape:
        return None
    if not problem.is_feasible(warm, relaxed=relax):
        return None
    return warm


def _dp_labels(
    problem: AllocationProblem,
    lb: np.ndarray,
    upper_bound: float = float("inf"),
    expires_at: float | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Pareto-label DP over (runtime, gpus-used) with (cost, carry) labels.

    Runs one NumPy sweep per stage (runtime ``i``). A stage's surviving
    labels are parallel arrays ``used``/``cost``/``carry`` plus a
    back-pointer (parent label, instances ``n``) per label; allocations
    are rebuilt from the back-pointers at the end. Every (label, n)
    expansion of a stage is formed by broadcasting, label-major and
    n-ascending, with the scalar :meth:`AllocationProblem.serve_cost`
    arithmetic evaluated in the same operation order, so costs are
    bit-identical to a per-label loop.

    Each ``used`` bucket is then Pareto-pruned on (cost, carry): one
    stable lexsort orders buckets by first insertion and entries by
    (cost, carry), ties keeping expansion order. Only an entry whose
    carry is strictly below every earlier carry in its bucket can
    survive, so the exact ``carry < best - _EPS`` scan runs over those
    candidates only. Exact ties (common when demand is far below one
    instance's capacity) are thereby resolved by insertion order.

    ``upper_bound`` is an incumbent cost from a known-feasible
    allocation (warm start): partial paths already costlier can never
    improve on it (step costs are non-negative) and are pruned. The
    returned optimum is unaffected — every path whose final cost is
    ≤ the bound survives intact.

    ``expires_at`` is an absolute ``time.perf_counter()`` deadline; the
    clock is polled at the start of every stage and before every
    bucket's scan, and :class:`_BudgetExpired` raised on expiry.

    Returns the final labels' costs (all in bucket ``used == G``,
    cheapest first) and the allocation of the first, cheapest one —
    ``None`` when no feasible allocation survives.
    """
    G, I = problem.num_gpus, problem.num_runtimes
    # Suffix lower-bound sums: GPUs that *must* remain for runtimes > i.
    suffix = np.concatenate([np.cumsum(lb[::-1])[::-1][1:], [0]])
    used = np.zeros(1, dtype=np.int64)
    cost = np.zeros(1)
    carry = np.zeros(1)
    parents: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    for i in range(I):
        if expires_at is not None and time.perf_counter() >= expires_at:
            raise _BudgetExpired
        lo = int(lb[i])
        is_last = i == I - 1
        if is_last:
            # The last runtime takes every GPU left (Eq. 2).
            parent = np.flatnonzero(G - used >= lo)
            n = G - used[parent]
        else:
            max_n = G - used - int(suffix[i])
            choices = lo + np.arange(max(int(max_n.max()) - lo + 1, 0))
            parent, col = np.nonzero(choices[None, :] <= max_n[:, None])
            n = choices[col]
        arrive = carry[parent] + problem.demand[i]
        if is_last:
            served, new_carry = arrive, np.zeros(arrive.size)
        else:
            cap = n * float(problem.capacity[i])
            served = np.minimum(arrive, cap)
            new_carry = np.maximum(arrive - cap, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            batch = np.maximum(served / n, 1.0)
            step = (
                problem.overhead_ms
                + problem.service_ms[i] * (batch + 1.0) / 2.0
            ) * served
        busy = served > _EPS
        step[~busy] = 0.0
        total = cost[parent] + step
        keep = ~(busy & (n <= 0)) & ~(total > upper_bound + _EPS)
        parent, n, total, new_carry = (
            parent[keep], n[keep], total[keep], new_carry[keep]
        )
        if total.size == 0:
            return total, None
        new_used = used[parent] + n
        _, first, inverse = np.unique(
            new_used, return_index=True, return_inverse=True
        )
        # A bucket's key is its first insertion; ties keep expansion order.
        inserted = first[inverse]
        order = np.lexsort((new_carry, total, inserted))
        s_carry = new_carry[order]
        bucket = np.cumsum(np.r_[True, np.diff(inserted[order]) != 0])
        # Running minimum of the earlier carries in each bucket, taken on
        # dense carry ranks offset so every later bucket's keys sit below
        # all of an earlier bucket's: one accumulate serves all buckets.
        _, rank = np.unique(s_carry, return_inverse=True)
        key = rank + (bucket[-1] - bucket) * (int(rank.max()) + 1)
        earlier = np.r_[np.iinfo(np.int64).max, np.minimum.accumulate(key)[:-1]]
        cand = np.flatnonzero(key < earlier)
        kept: list[int] = []
        current, best = -1, float("inf")
        for j, b, c in zip(
            cand.tolist(), bucket[cand].tolist(), s_carry[cand].tolist()
        ):
            if b != current:
                if expires_at is not None and time.perf_counter() >= expires_at:
                    raise _BudgetExpired
                current, best = b, float("inf")
            if c < best - _EPS:
                kept.append(j)
                best = c
        sel = order[kept]
        used, cost, carry = new_used[sel], total[sel], new_carry[sel]
        parents.append(parent[sel])
        counts.append(n[sel])
    alloc = np.empty(I, dtype=np.int64)
    label = 0
    for i in range(I - 1, -1, -1):
        alloc[i] = counts[i][label]
        label = parents[i][label]
    return cost, alloc


def solve_dp(
    problem: AllocationProblem,
    relax: bool = False,
    warm_start: np.ndarray | None = None,
    budget_s: float | None = None,
) -> AllocationResult:
    """Exact solver. Optimal because, for fixed GPUs-used, a prefix with
    both lower cost and lower carried demand can never be beaten by the
    dominated one downstream (cost-to-go is non-decreasing in carry).

    A feasible ``warm_start`` allocation supplies an incumbent upper
    bound that prunes dominated partial paths early; the returned
    *objective* is identical to the cold solve's (only strictly-worse
    prefixes are dropped, so every optimal path survives). When several
    allocations tie at the optimum the reported one may differ — the
    bound changes which tied representative survives Pareto filtering.

    ``budget_s`` bounds the wall clock. The DP holds no usable partial
    solution mid-sweep, so on expiry it falls back to the warm-start
    incumbent (returned with ``stats["interrupted"] = True``) or raises
    :class:`DeadlineExceeded` when none was supplied.
    """
    start = time.perf_counter()
    expires_at = None if budget_s is None else start + budget_s
    lb = problem.lower_bounds(relax=relax)
    warm = _warm_allocation(problem, warm_start, relax)
    upper = problem.evaluate(warm) if warm is not None else float("inf")
    try:
        final, alloc = _dp_labels(
            problem, lb, upper_bound=upper, expires_at=expires_at
        )
    except _BudgetExpired:
        if warm is None:
            raise DeadlineExceeded(
                f"DP budget {budget_s * 1e3:.1f} ms expired with no incumbent"
            ) from None
        return AllocationResult(
            allocation=warm.copy(),
            objective=upper,
            solver="dp",
            solve_time_s=time.perf_counter() - start,
            relaxed=relax,
            stats={"warm_started": True, "interrupted": True},
        )
    if alloc is None:
        raise InfeasibleError("no feasible allocation found by the DP")
    return AllocationResult(
        allocation=alloc,
        objective=final[0],
        solver="dp",
        solve_time_s=time.perf_counter() - start,
        relaxed=relax,
        stats={"final_labels": len(final), "warm_started": warm is not None},
    )


# ---------------------------------------------------------------------------
# Brute force (test oracle)
# ---------------------------------------------------------------------------

def solve_bruteforce(
    problem: AllocationProblem,
    relax: bool = False,
    warm_start: np.ndarray | None = None,
    budget_s: float | None = None,
) -> AllocationResult:
    """Enumerate every feasible allocation. Exponential — tests only.

    ``warm_start`` is accepted for interface uniformity and ignored
    (exhaustive enumeration has nothing to prune). ``budget_s`` bounds
    the wall clock: on expiry the best allocation enumerated so far is
    returned with ``stats["interrupted"] = True`` (or
    :class:`DeadlineExceeded` if none was feasible yet).
    """
    start = time.perf_counter()
    expires_at = None if budget_s is None else start + budget_s
    lb = problem.lower_bounds(relax=relax)
    G, I = problem.num_gpus, problem.num_runtimes
    spare = G - int(lb.sum())
    best_cost, best_alloc = float("inf"), None
    checked = 0
    ticks = 0
    interrupted = False
    # Distribute `spare` extra GPUs over I runtimes (stars and bars).
    for extra in itertools.product(range(spare + 1), repeat=I):
        ticks += 1
        if (
            expires_at is not None
            and not ticks & 511
            and time.perf_counter() >= expires_at
        ):
            interrupted = True
            break
        if sum(extra) != spare:
            continue
        alloc = lb + np.asarray(extra, dtype=np.int64)
        checked += 1
        cost = problem.evaluate(alloc)
        if cost < best_cost:
            best_cost, best_alloc = cost, alloc
    if best_alloc is None:
        if interrupted:
            raise DeadlineExceeded(
                f"brute-force budget {budget_s * 1e3:.1f} ms expired "
                "before any feasible allocation was enumerated"
            )
        raise InfeasibleError("no feasible allocation exists")
    stats = {"allocations_checked": checked}
    if interrupted:
        stats["interrupted"] = True
    return AllocationResult(
        allocation=best_alloc,
        objective=best_cost,
        solver="brute",
        solve_time_s=time.perf_counter() - start,
        relaxed=relax,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Greedy first-fit (anytime-ladder bottom rung)
# ---------------------------------------------------------------------------

def _spread_spare(problem: AllocationProblem, alloc: np.ndarray, spare: int) -> None:
    """Distribute ``spare`` GPUs over runtimes proportional to demand, O(I).

    Mutates ``alloc`` in place; fractional remainders are resolved by
    largest-remainder rounding so exactly ``spare`` GPUs are placed.
    """
    if spare <= 0:
        return
    I = problem.num_runtimes
    total = float(problem.demand.sum())
    weights = problem.demand / total if total > _EPS else np.full(I, 1.0 / I)
    extra = np.floor(weights * spare).astype(np.int64)
    left = spare - int(extra.sum())
    if left > 0:
        order = np.argsort(-(weights * spare - extra), kind="stable")
        extra[order[:left]] += 1
    alloc += extra


def solve_greedy(
    problem: AllocationProblem,
    relax: bool = False,
    warm_start: np.ndarray | None = None,
    budget_s: float | None = None,
) -> AllocationResult:
    """First-fit heuristic — the bottom rung of the anytime ladder.

    Walks runtimes shortest→longest giving each just enough instances
    (beyond its Eq. 3 bound) to absorb the demand arriving at it under
    the Eq. 4 cascade, then spreads leftover GPUs proportional to
    demand. O(I) — finishes in microseconds at any pool size, so it is
    the rung that guarantees the anytime ladder always holds a feasible
    allocation no matter how tight the deadline. ``budget_s`` is
    accepted for ladder-interface uniformity and never needed.

    A feasible ``warm_start`` is kept instead when it scores better —
    the greedy rung must never degrade an allocation already held.
    """
    start = time.perf_counter()
    lb = problem.lower_bounds(relax=relax)
    G, I = problem.num_gpus, problem.num_runtimes
    alloc = lb.copy()
    spare = G - int(alloc.sum())
    carry = 0.0
    for i in range(I):
        arrive = carry + float(problem.demand[i])
        unit = float(problem.capacity[i])
        cap = float(alloc[i]) * unit
        if arrive > cap + _EPS and spare > 0:
            need = min(spare, int(np.ceil((arrive - cap) / unit - _EPS)))
            alloc[i] += need
            spare -= need
            cap += need * unit
        carry = max(arrive - cap, 0.0)
    _spread_spare(problem, alloc, spare)
    objective = problem.evaluate(alloc)
    warm = _warm_allocation(problem, warm_start, relax)
    warm_used = False
    if warm is not None:
        warm_obj = problem.evaluate(warm)
        if warm_obj < objective:
            alloc, objective, warm_used = warm.copy(), warm_obj, True
    return AllocationResult(
        allocation=alloc,
        objective=objective,
        solver="greedy",
        solve_time_s=time.perf_counter() - start,
        relaxed=relax,
        stats={"warm_started": warm_used},
    )


# ---------------------------------------------------------------------------
# Local search (production scale)
# ---------------------------------------------------------------------------

def solve_local_search(
    problem: AllocationProblem,
    relax: bool = False,
    max_rounds: int = 10_000,
    warm_start: np.ndarray | None = None,
    budget_s: float | None = None,
) -> AllocationResult:
    """Greedy seed + steepest-descent single-GPU moves.

    Seed: lower bounds, then add remaining GPUs one at a time to the
    runtime with the best marginal objective improvement. Improve: move
    ``k ∈ {1, 2, 3}`` GPUs between a pair of runtimes while any move
    helps (multi-GPU moves escape the single-move local optima the
    cascade objective creates). The objective evaluation is O(I), so
    each round is O(I²) — comfortably fast for 1000 GPUs × 16 runtimes.

    A feasible ``warm_start`` replaces the greedy seeding phase (the
    dominant cost at scale: O(spare·I²) evaluations) — descent starts
    from the given allocation. Starting from a previous *optimum*, the
    result can only match or improve on that allocation's cost; with no
    usable warm start the cold path runs unchanged.

    ``budget_s`` bounds the wall clock. Expiry during seeding completes
    the allocation instantly with a proportional spread of the unplaced
    GPUs (feasibility is never sacrificed); expiry during descent keeps
    the current (always-feasible) allocation. Either way the result
    carries ``stats["interrupted"] = True``.
    """
    start = time.perf_counter()
    expires_at = None if budget_s is None else start + budget_s
    lb = problem.lower_bounds(relax=relax)
    G, I = problem.num_gpus, problem.num_runtimes
    warm = _warm_allocation(problem, warm_start, relax)
    interrupted = False
    if warm is not None:
        alloc = warm.copy()
        current = problem.evaluate(alloc)
    else:
        alloc = lb.copy()
        spare = G - int(alloc.sum())
        current = problem.evaluate(alloc)
        # Greedy seeding by best marginal gain.
        for placed in range(spare):
            if expires_at is not None and time.perf_counter() >= expires_at:
                _spread_spare(problem, alloc, spare - placed)
                current = problem.evaluate(alloc)
                interrupted = True
                break
            best_i, best_cost = -1, float("inf")
            for i in range(I):
                alloc[i] += 1
                cost = problem.evaluate(alloc)
                alloc[i] -= 1
                if cost < best_cost:
                    best_i, best_cost = i, cost
            alloc[best_i] += 1
            current = best_cost
    # Steepest-descent pairwise moves.
    rounds = 0
    improved = not interrupted
    while improved and rounds < max_rounds:
        improved = False
        rounds += 1
        best_move, best_cost = None, current
        for src in range(I):
            headroom = int(alloc[src] - lb[src])
            for k in (1, 2, 3):
                if expires_at is not None and time.perf_counter() >= expires_at:
                    interrupted = True
                    break
                if headroom < k:
                    break
                alloc[src] -= k
                for dst in range(I):
                    if dst == src:
                        continue
                    alloc[dst] += k
                    cost = problem.evaluate(alloc)
                    if cost < best_cost - _EPS:
                        best_move, best_cost = (src, dst, k), cost
                    alloc[dst] -= k
                alloc[src] += k
            if interrupted:
                break
        if best_move is not None:
            src, dst, k = best_move
            alloc[src] -= k
            alloc[dst] += k
            current = best_cost
            improved = not interrupted
    stats = {"rounds": rounds, "warm_started": warm is not None}
    if interrupted:
        stats["interrupted"] = True
    return AllocationResult(
        allocation=alloc,
        objective=current,
        solver="local",
        solve_time_s=time.perf_counter() - start,
        relaxed=relax,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# MILP validation path (exercises repro.solver)
# ---------------------------------------------------------------------------

def _milp_warm_cascade(
    problem: AllocationProblem, warm: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(serve, carry) vectors of a warm allocation under Eqs. 4–5."""
    I = problem.num_runtimes
    serve = np.zeros(I)
    carry = np.zeros(I)
    c = 0.0
    for i in range(I):
        arrive = c + float(problem.demand[i])
        cap = float(warm[i]) * float(problem.capacity[i])
        if i < I - 1:
            serve[i] = min(arrive, cap)
            c = max(arrive - cap, 0.0)
            carry[i] = c
        else:
            serve[i] = arrive
            carry[i] = 0.0
    return serve, carry


def solve_milp_encoding(
    problem: AllocationProblem,
    relax: bool = False,
    tangents_per_choice: int = 6,
    max_nodes: int = 200_000,
    warm_start: np.ndarray | None = None,
    budget_s: float | None = None,
) -> AllocationResult:
    """Eqs. 1–7 as a MILP on the in-house branch & bound.

    The ``min`` of Eq. 5 is enforced with an indicator binary per
    runtime, and each convex serving-cost curve ``g_{i,n}(s)`` is
    under-approximated by tangent lines gated on the instance-count
    selection binaries ``y_{i,n}``. The reported objective is therefore
    a *lower bound* that converges to the DP optimum as
    ``tangents_per_choice`` grows; the returned allocation is exact-
    evaluated before being reported. Intended for small instances
    (G ≤ ~10) as a cross-validation of the solver substrate.

    A feasible ``warm_start`` allocation is lifted to a full MILP point
    (selection binaries, cascade flows, epigraph costs) that seeds the
    branch & bound incumbent, tightening pruning from the first node.

    When the branch & bound stops early — node cap or ``budget_s``
    wall-clock deadline — the best incumbent found is returned with
    ``stats["interrupted"] = True`` instead of raising; only a stop
    with *no* incumbent raises (:class:`DeadlineExceeded` when the
    deadline caused it, :class:`SolverError` otherwise).
    """
    start = time.perf_counter()
    lb = problem.lower_bounds(relax=relax)
    G, I = problem.num_gpus, problem.num_runtimes
    total_demand = float(problem.demand.sum())
    big_m = max(total_demand, 1.0) * max(
        problem.mean_latency(i, total_demand) for i in range(I)
    )
    warm = _warm_allocation(problem, warm_start, relax)
    warm_vals: dict | None = None
    warm_serve = warm_carry = None
    if warm is not None:
        warm_serve, warm_carry = _milp_warm_cascade(problem, warm)
        warm_vals = {}

    m = Model("arlo-allocation")
    # y[i][n] — runtime i runs exactly n instances.
    choices: list[list[int]] = []
    y: list[dict[int, object]] = []
    for i in range(I):
        opts = list(range(int(lb[i]), G + 1))
        choices.append(opts)
        y.append({n: m.add_var(ub=1.0, integer=True, name=f"y[{i},{n}]")
                  for n in opts})
        m.add_constr(LinExpr.sum(y[i].values()) == 1)
        if warm_vals is not None:
            for n in opts:
                warm_vals[y[i][n]] = 1.0 if n == int(warm[i]) else 0.0
    # Σ N_i = G.
    m.add_constr(
        LinExpr.sum(
            n * y[i][n] for i in range(I) for n in choices[i]
        ) == G
    )
    serve = [m.add_var(ub=total_demand, name=f"serve[{i}]") for i in range(I)]
    carry = [m.add_var(ub=total_demand, name=f"carry[{i}]") for i in range(I)]
    cost = [m.add_var(ub=big_m, name=f"cost[{i}]") for i in range(I)]
    z = [m.add_var(ub=1.0, integer=True, name=f"z[{i}]") for i in range(I)]

    for i in range(I):
        if warm_vals is not None:
            warm_vals[serve[i]] = float(warm_serve[i])
            warm_vals[carry[i]] = float(warm_carry[i])
            arrive_w = (float(warm_carry[i - 1]) if i > 0 else 0.0) + float(
                problem.demand[i]
            )
            cap_w = float(warm[i]) * float(problem.capacity[i])
            # z selects the binding side of the Eq. 5 min.
            warm_vals[z[i]] = 1.0 if cap_w < arrive_w - _EPS else 0.0
            warm_cost = 0.0
        arrive = (carry[i - 1] if i > 0 else LinExpr()) + float(problem.demand[i])
        cap_expr = LinExpr.sum(
            n * float(problem.capacity[i]) * y[i][n] for n in choices[i]
        )
        if i < I - 1:
            # serve = min(arrive, cap):  ≤ both, ≥ one of them via z.
            m.add_constr(serve[i] <= arrive)
            m.add_constr(serve[i] <= cap_expr)
            m.add_constr(serve[i] >= arrive - big_m * z[i])
            m.add_constr(serve[i] >= cap_expr - big_m * (1 - z[i]))
            m.add_constr(carry[i] >= arrive - cap_expr)
            m.add_constr(carry[i] <= arrive - serve[i] + _EPS)
        else:
            m.add_constr(serve[i] == arrive)
            m.add_constr(carry[i] == 0)
        # Cost epigraph per instance-count choice.
        for n in choices[i]:
            if n == 0:
                # Zero instances can serve nothing.
                m.add_constr(serve[i] <= big_m * (1 - y[i][n]))
                continue
            service = float(problem.service_ms[i])

            def g(s: float, n=n, service=service) -> float:
                b = max(s / n, 1.0)
                return s * (problem.overhead_ms + service * (b + 1.0) / 2.0)

            hi = max(total_demand, float(n))
            for tan in tangent_lines(g, 0.0, hi, tangents_per_choice):
                m.add_constr(
                    cost[i] >= tan.slope * serve[i] + tan.intercept
                    - big_m * (1 - y[i][n])
                )
                if warm_vals is not None:
                    gate = 0.0 if n == int(warm[i]) else big_m
                    warm_cost = max(
                        warm_cost,
                        tan.slope * float(warm_serve[i]) + tan.intercept - gate,
                    )
        if warm_vals is not None:
            warm_vals[cost[i]] = warm_cost
    m.minimize(LinExpr.sum(cost))
    # Model build time counts against the budget: hand B&B the remainder.
    deadline_s = None
    if budget_s is not None:
        deadline_s = max(budget_s - (time.perf_counter() - start), 1e-4)
    sol = m.solve(max_nodes=max_nodes, warm_values=warm_vals, deadline_s=deadline_s)
    interrupted = bool(sol.extra.get("interrupted", False))
    if sol.x is None:
        if interrupted and budget_s is not None:
            raise DeadlineExceeded(
                f"MILP budget {budget_s * 1e3:.1f} ms expired with no incumbent"
            )
        raise SolverError(f"MILP encoding terminated with status {sol.status}")
    alloc = np.array(
        [sum(n for n in choices[i] if round(sol[y[i][n]]) == 1) for i in range(I)],
        dtype=np.int64,
    )
    stats = {
        "lower_bound": sol.objective,
        "nodes": sol.nodes_explored,
        "lp_iterations": int(sol.extra.get("lp_iterations", 0)),
        "warm_started": bool(sol.extra.get("warm_started", False)),
    }
    if interrupted:
        stats["interrupted"] = True
    return AllocationResult(
        allocation=alloc,
        objective=problem.evaluate(alloc),
        solver="milp",
        solve_time_s=time.perf_counter() - start,
        relaxed=relax,
        stats=stats,
    )


_SOLVERS = {
    "dp": solve_dp,
    "brute": solve_bruteforce,
    "greedy": solve_greedy,
    "local": solve_local_search,
    "milp": solve_milp_encoding,
}

#: Above this many GPUs the exact DP yields to local search by default.
_DP_SCALE_LIMIT = 120


def solve_allocation(
    problem: AllocationProblem,
    method: str = "auto",
    relax: bool = False,
    warm_start: np.ndarray | None = None,
    budget_s: float | None = None,
) -> AllocationResult:
    """Solve Eqs. 1–7 with the requested (or size-appropriate) solver.

    ``warm_start`` is an optional prior allocation (typically last
    period's) used to seed bounds/incumbents; infeasible warm starts
    are validated away, and exact solvers return results identical to
    a cold solve.

    ``budget_s`` is an optional wall-clock budget: a solver that runs
    out returns its best incumbent with ``stats["interrupted"] = True``
    when it holds one, and raises :class:`DeadlineExceeded` otherwise.
    (See :func:`repro.perf.anytime.solve_anytime` for the deadline-
    driven ladder that composes the solvers.)
    """
    if method == "auto":
        method = "dp" if problem.num_gpus <= _DP_SCALE_LIMIT else "local"
    try:
        solver = _SOLVERS[method]
    except KeyError:
        raise ConfigurationError(
            f"unknown solver {method!r}; options: auto, {sorted(_SOLVERS)}"
        ) from None
    return solver(problem, relax=relax, warm_start=warm_start, budget_s=budget_s)
