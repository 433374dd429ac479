"""Scalar Pareto-label DP kept as a test oracle for ``solve_dp``.

This is the exact allocation DP as it stood before the stage-vectorised
rewrite in :mod:`repro.core.allocation`: one Python-level expansion per
(label, instance count) pair, an ``alloc + (n,)`` tuple per label and a
stable ``(cost, carry)`` sort per bucket. The rewrite must reproduce its
allocations, objective bits, tie-breaks and ``final_labels`` exactly;
``tests/core/test_dp_differential.py`` checks that.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.allocation import (
    _EPS,
    AllocationProblem,
    AllocationResult,
    _BudgetExpired,
    _warm_allocation,
)
from repro.errors import DeadlineExceeded, InfeasibleError


def _dp_labels(
    problem: AllocationProblem,
    lb: np.ndarray,
    upper_bound: float = float("inf"),
    expires_at: float | None = None,
):
    """Pareto-label DP over (runtime, gpus-used) with (cost, carry) labels.

    ``upper_bound`` is an incumbent cost from a known-feasible
    allocation (warm start): partial paths already costlier can never
    improve on it (step costs are non-negative) and are pruned. The
    returned optimum is unaffected — every path whose final cost is
    ≤ the bound survives intact.

    ``expires_at`` is an absolute ``time.perf_counter()`` deadline; the
    clock is polled every 128 label expansions (µs-granular at 1000-GPU
    scale) and :class:`_BudgetExpired` raised on expiry.
    """
    G, I = problem.num_gpus, problem.num_runtimes
    ticks = 0
    # Suffix lower-bound sums: GPUs that *must* remain for runtimes > i.
    suffix = np.concatenate([np.cumsum(lb[::-1])[::-1][1:], [0]])
    # labels[g] = list of (cost, carry, alloc_tuple) Pareto-optimal prefixes.
    labels: dict[int, list[tuple[float, float, tuple[int, ...]]]] = {
        0: [(0.0, 0.0, ())]
    }
    for i in range(I):
        is_last = i == I - 1
        new_labels: dict[int, list[tuple[float, float, tuple[int, ...]]]] = {}
        for used, frontier in labels.items():
            max_n = G - used - int(suffix[i])
            if max_n < lb[i]:
                continue
            for cost, carry, alloc in frontier:
                arrive = carry + problem.demand[i]
                for n in range(int(lb[i]), max_n + 1):
                    ticks += 1
                    if (
                        expires_at is not None
                        and not ticks & 127
                        and time.perf_counter() >= expires_at
                    ):
                        raise _BudgetExpired
                    cap = n * float(problem.capacity[i])
                    if is_last:
                        if used + n != G:
                            continue
                        served, new_carry = arrive, 0.0
                    else:
                        served = min(arrive, cap)
                        new_carry = max(arrive - cap, 0.0)
                    step_cost = problem.serve_cost(i, served, n)
                    if step_cost == float("inf"):
                        continue
                    total = cost + step_cost
                    if total > upper_bound + _EPS:
                        continue  # cannot beat the warm-start incumbent
                    entry = (total, new_carry, alloc + (n,))
                    new_labels.setdefault(used + n, []).append(entry)
        # Pareto-prune each bucket on (cost, carry). The sorts are the
        # other place a stage spends real time (O(E log E) over every
        # surviving label), so the deadline is polled per bucket too.
        labels = {}
        for used, entries in new_labels.items():
            if expires_at is not None and time.perf_counter() >= expires_at:
                raise _BudgetExpired
            entries.sort(key=lambda e: (e[0], e[1]))
            pruned: list[tuple[float, float, tuple[int, ...]]] = []
            best_carry = float("inf")
            for e in entries:
                if e[1] < best_carry - _EPS:
                    pruned.append(e)
                    best_carry = e[1]
            labels[used] = pruned
    return labels


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
        labels = _dp_labels(problem, lb, upper_bound=upper, expires_at=expires_at)
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
    final = labels.get(problem.num_gpus, [])
    if not final:
        raise InfeasibleError("no feasible allocation found by the DP")
    cost, _carry, alloc = min(final, key=lambda e: e[0])
    return AllocationResult(
        allocation=np.asarray(alloc, dtype=np.int64),
        objective=cost,
        solver="dp",
        solve_time_s=time.perf_counter() - start,
        relaxed=relax,
        stats={"final_labels": len(final), "warm_started": warm is not None},
    )
