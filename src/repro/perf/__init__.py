"""Control-plane and data-path performance primitives.

The paper makes control overhead a first-class metric (Table 2's ILP
solve times); this package keeps it near-constant in practice:

- :mod:`repro.perf.cache` — memoization of solved allocations keyed by
  a canonicalized demand histogram + instance budget, with TTL and
  profile-fingerprint invalidation.
- :mod:`repro.perf.incremental` — exact sliding-window histograms
  updated per arrival (never rebuilt per period).
- :mod:`repro.perf.counters` — O(1) outstanding/capacity congestion
  aggregates maintained through instance lifecycle transitions.
- :mod:`repro.perf.anytime` — deadline-bounded solver policy ladder
  (greedy → local → DP) that always holds a feasible allocation
  and upgrades it while wall-clock budget remains.
- :mod:`repro.perf.forecast` — Holt–Winters demand forecaster feeding
  forecast-driven pre-solves into the allocation cache.
"""

from repro.perf.anytime import DEFAULT_LADDER, LadderRung, RUNGS, solve_anytime
from repro.perf.cache import AllocationCache, CachedAllocation
from repro.perf.counters import CongestionTracker
from repro.perf.forecast import DemandForecaster
from repro.perf.incremental import IncrementalHistogram

__all__ = [
    "AllocationCache",
    "CachedAllocation",
    "CongestionTracker",
    "DEFAULT_LADDER",
    "DemandForecaster",
    "IncrementalHistogram",
    "LadderRung",
    "RUNGS",
    "solve_anytime",
]
