"""Deadline-bounded anytime solver ladder for the Eq. 1–7 allocation.

The Runtime Scheduler must hold a *feasible* allocation at every period
boundary, however tight the control period. Instead of picking one
solver and hoping it finishes, :func:`solve_anytime` climbs a **policy
ladder** — a registry of optimisation levels ordered cheapest-first
(mirroring the ``FUNCS`` ladder shape of the stroboscope scheduler
exemplar)::

    greedy (O(I) first-fit)  →  local (steepest descent)
        →  dp (exact Pareto-label DP)

Each rung is budgeted with the wall-clock time remaining under the
caller's deadline and warm-started from the best incumbent so far, so

- a feasible allocation exists after the first rung (microseconds), and
- every later rung can only *improve* the incumbent: rung results are
  accepted only when strictly better, and the budgeted solvers return
  their warm-start incumbent (never something worse) on expiry.

The result is an :class:`~repro.core.allocation.AllocationResult` whose
``stats`` record the full climb: per-rung objective/elapsed/interrupted,
the rung the incumbent came from, and whether the deadline was met.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.allocation import (
    _DP_SCALE_LIMIT,
    AllocationProblem,
    AllocationResult,
    solve_dp,
    solve_greedy,
    solve_local_search,
)
from repro.errors import ConfigurationError, DeadlineExceeded, SolverError

#: Below this fraction of the original deadline remaining, a rung is not
#: worth entering: it would almost certainly expire before improving on
#: the incumbent and the poll-granularity overrun risks the deadline.
_MIN_BUDGET_FRAC = 0.1

#: Fraction of the deadline reserved as overrun headroom. Budgeted
#: solvers poll the clock at a finite granularity (every DP stage and
#: bucket scan, every descent-move sweep) and the ladder itself spends a
#: little between rungs; handing a rung the *full* remaining budget
#: would let those overruns breach the caller's deadline.
_SAFETY_FRAC = 0.1

@dataclass(frozen=True)
class LadderRung:
    """One optimisation level of the anytime ladder."""

    name: str
    #: Budgeted solver: (problem, relax, warm_start, budget_s) → result.
    solve: Callable[..., AllocationResult]
    #: Exact rungs end the climb early when they finish uninterrupted —
    #: no later rung can improve on a proven optimum.
    exact: bool = False
    #: Skip the rung entirely when the remaining budget is below this
    #: fraction of the full deadline.
    min_budget_frac: float = _MIN_BUDGET_FRAC
    #: Problem-shape gate; rungs unsuited to an instance are skipped.
    suitable: Callable[[AllocationProblem], bool] = lambda problem: True


#: Registry of ladder rungs, cheapest first (the stroboscope ``FUNCS``
#: shape: name → strategy, climbed under a budget).
#:
#: The DP rung is gated to the same scale the ``auto`` solver uses it
#: at (≤ ``_DP_SCALE_LIMIT`` GPUs). Beyond that a full DP sweep takes
#: hundreds of milliseconds and more, so a realtime budget can never
#: let it finish — and a single stage's vectorised expansion (label ×
#: instance pairs, growing with the square of the fleet) can blow a
#: 50 ms deadline *between* two clock polls. A rung that can only ever
#: burn budget and risk the deadline is not an upgrade path.
RUNGS: dict[str, LadderRung] = {
    "greedy": LadderRung(name="greedy", solve=solve_greedy, min_budget_frac=0.0),
    "local": LadderRung(name="local", solve=solve_local_search),
    "dp": LadderRung(
        name="dp",
        solve=solve_dp,
        exact=True,
        suitable=lambda problem: problem.num_gpus <= _DP_SCALE_LIMIT,
    ),
}

#: Default climb order. The MILP encoding is not a rung: its epigraph
#: objective is a lower-bound approximation that never beats a finished
#: DP, and its O(I·G) binaries only fit a realtime deadline on small
#: pools, where the exact DP already ends the climb.
DEFAULT_LADDER: tuple[str, ...] = ("greedy", "local", "dp")


def resolve_ladder(names: tuple[str, ...] | list[str] | None) -> tuple[LadderRung, ...]:
    """Map rung names to registry entries, validating unknown names."""
    picked = tuple(names) if names else DEFAULT_LADDER
    if not picked:
        raise ConfigurationError("ladder needs at least one rung")
    rungs = []
    for name in picked:
        try:
            rungs.append(RUNGS[name])
        except KeyError:
            raise ConfigurationError(
                f"unknown ladder rung {name!r}; options: {sorted(RUNGS)}"
            ) from None
    return tuple(rungs)


def solve_anytime(
    problem: AllocationProblem,
    deadline_s: float,
    ladder: tuple[str, ...] | list[str] | None = None,
    relax: bool = False,
    warm_start: np.ndarray | None = None,
) -> AllocationResult:
    """Climb the solver ladder within a wall-clock deadline.

    Returns the best incumbent found, as an ``AllocationResult`` with
    ``solver="anytime"`` and stats::

        rung          name of the rung that produced the incumbent
        rungs         [{name, objective, elapsed_ms, interrupted,
                        accepted, gap}, ...] in climb order (gap is the
                       relative objective excess vs the final incumbent)
        elapsed_ms    total wall clock
        deadline_ms   the requested deadline
        deadline_hit  True iff elapsed_ms <= deadline_ms

    Guarantees:

    - **Feasible-first**: the first suitable rung (``greedy`` in the
      default ladder) is entered regardless of remaining budget, so a
      feasible incumbent exists unless the problem itself is infeasible.
    - **Monotone**: a rung's result replaces the incumbent only when
      strictly better; the held allocation never degrades mid-climb.
    - **Early exit**: an exact rung that finishes uninterrupted ends the
      climb — its objective is the proven optimum.

    Raises :class:`InfeasibleError` when the problem has no feasible
    allocation, and :class:`DeadlineExceeded` only in the degenerate
    case where every rung errored and no incumbent exists.
    """
    if deadline_s <= 0:
        raise ConfigurationError(f"deadline must be positive, got {deadline_s}")
    start = time.perf_counter()
    expires_at = start + deadline_s
    rungs = resolve_ladder(ladder)

    incumbent: AllocationResult | None = None
    incumbent_alloc = np.asarray(warm_start) if warm_start is not None else None
    rung_log: list[dict] = []
    best_rung = ""
    last_error: SolverError | None = None

    for rung in rungs:
        remaining = expires_at - time.perf_counter()
        if incumbent is not None:
            if remaining <= 0:
                break
            if remaining < rung.min_budget_frac * deadline_s:
                continue
            if not rung.suitable(problem):
                continue
        elif not rung.suitable(problem):
            continue
        rung_start = time.perf_counter()
        try:
            result = rung.solve(
                problem,
                relax=relax,
                warm_start=incumbent_alloc,
                # The first feasible incumbent must exist whatever the
                # clock says: give the bootstrap rung a real budget.
                budget_s=max(remaining - _SAFETY_FRAC * deadline_s, 1e-4),
            )
        except DeadlineExceeded as exc:
            last_error = exc
            rung_log.append({
                "name": rung.name,
                "objective": None,
                "elapsed_ms": (time.perf_counter() - rung_start) * 1e3,
                "interrupted": True,
                "accepted": False,
            })
            continue
        except SolverError:
            # Infeasibility is a property of the problem, not the rung:
            # no later rung can fix it. Errors before any incumbent
            # exists must surface; with an incumbent in hand they are
            # rung-local and skippable.
            if incumbent is None:
                raise
            last_error = None
            rung_log.append({
                "name": rung.name,
                "objective": None,
                "elapsed_ms": (time.perf_counter() - rung_start) * 1e3,
                "interrupted": False,
                "accepted": False,
            })
            continue
        interrupted = bool(result.stats.get("interrupted", False))
        accepted = incumbent is None or result.objective < incumbent.objective - 1e-12
        if accepted:
            incumbent = result
            incumbent_alloc = result.allocation
            best_rung = rung.name
        rung_log.append({
            "name": rung.name,
            "objective": float(result.objective),
            "elapsed_ms": (time.perf_counter() - rung_start) * 1e3,
            "interrupted": interrupted,
            "accepted": accepted,
        })
        if rung.exact and not interrupted:
            break  # proven optimum — nothing above can improve it

    if incumbent is None:
        raise last_error or DeadlineExceeded(
            f"anytime ladder found no incumbent within {deadline_s * 1e3:.1f} ms"
        )
    elapsed_ms = (time.perf_counter() - start) * 1e3
    best = incumbent.objective
    for entry in rung_log:
        obj = entry["objective"]
        entry["gap"] = (
            None if obj is None else (obj - best) / max(abs(best), 1e-12)
        )
    return AllocationResult(
        allocation=incumbent.allocation,
        objective=incumbent.objective,
        solver="anytime",
        solve_time_s=elapsed_ms / 1e3,
        relaxed=relax,
        stats={
            "rung": best_rung,
            "rungs": rung_log,
            "elapsed_ms": elapsed_ms,
            "deadline_ms": deadline_s * 1e3,
            "deadline_hit": elapsed_ms <= deadline_s * 1e3,
            "warm_started": warm_start is not None,
        },
    )
