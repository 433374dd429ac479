"""Metrics collection: latency records, SLO accounting, GPU timelines.

Two complementary latency views coexist here:

- the **exact population** (chunked buffers → one NumPy array at
  summary time), which the paper's figures and the fidelity tests use;
- a **streaming quantile sketch** (:class:`StreamingLatencySummary`)
  with log-spaced fixed bins and running moments, giving O(1)-memory
  snapshots and an *order-independent merge* — the reduction the
  sharded simulator driver (:mod:`repro.sim.sharded`) relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import EmptySketchError, SimulationError


@dataclass(frozen=True)
class LatencyStats:
    """Summary of a latency population (the paper's headline metrics)."""

    count: int
    mean_ms: float
    p50_ms: float
    p98_ms: float
    p99_ms: float
    max_ms: float
    slo_violation_rate: float

    @classmethod
    def from_array(cls, latencies: np.ndarray, slo_ms: float) -> "LatencyStats":
        if latencies.size == 0:
            raise SimulationError("no completed requests to summarise")
        return cls(
            count=int(latencies.size),
            mean_ms=float(latencies.mean()),
            p50_ms=float(np.percentile(latencies, 50)),
            p98_ms=float(np.percentile(latencies, 98)),
            p99_ms=float(np.percentile(latencies, 99)),
            max_ms=float(latencies.max()),
            slo_violation_rate=float(np.mean(latencies > slo_ms)),
        )


class StreamingLatencySummary:
    """Mergeable quantile sketch over log-spaced fixed bins.

    Values are mapped to geometric bins ``lo·g^k`` with growth factor
    ``g``; a quantile query returns the geometric midpoint of the bin
    holding the target rank, so the relative error of any quantile is
    bounded by ``√g − 1`` (≈0.5 % at the default ``g = 1.01``) for
    values inside ``[lo, hi]``. Alongside the bins it keeps exact
    running moments (count, sum, sum of squares, min, max) and the SLO
    violation count.

    ``merge`` adds two sketches bin-wise — a commutative, associative
    reduction, so shard summaries can be combined in any order and the
    result is independent of the worker count.
    """

    __slots__ = ("lo_ms", "growth", "slo_ms", "num_bins", "_log_growth",
                 "counts", "count", "total_ms", "total_sq_ms", "min_ms",
                 "max_ms", "violations")

    #: Defaults cover 0.05 ms .. 10⁷ ms at ≤0.5 % relative error.
    DEFAULT_LO_MS = 0.05
    DEFAULT_HI_MS = 1e7
    DEFAULT_GROWTH = 1.01

    def __init__(
        self,
        slo_ms: float = float("inf"),
        lo_ms: float = DEFAULT_LO_MS,
        hi_ms: float = DEFAULT_HI_MS,
        growth: float = DEFAULT_GROWTH,
    ):
        if lo_ms <= 0 or hi_ms <= lo_ms:
            raise SimulationError("need 0 < lo < hi for the sketch span")
        if growth <= 1.0:
            raise SimulationError("growth factor must exceed 1")
        self.lo_ms = lo_ms
        self.growth = growth
        self.slo_ms = slo_ms
        self._log_growth = math.log(growth)
        # bin 0: v <= lo; bins 1..B-2: (lo·g^(k-1), lo·g^k];
        # bin B-1: overflow (> hi).
        self.num_bins = (
            int(math.ceil(math.log(hi_ms / lo_ms) / self._log_growth)) + 2
        )
        self.counts = np.zeros(self.num_bins, dtype=np.int64)
        self.count = 0
        self.total_ms = 0.0
        self.total_sq_ms = 0.0
        self.min_ms = math.inf
        self.max_ms = 0.0
        self.violations = 0

    # -- ingestion --------------------------------------------------------
    def _bin_of(self, value_ms: float) -> int:
        if value_ms <= self.lo_ms:
            return 0
        k = 1 + int(math.log(value_ms / self.lo_ms) / self._log_growth)
        return k if k < self.num_bins else self.num_bins - 1

    def add(self, value_ms: float) -> None:
        """Record one latency sample."""
        if value_ms < 0:
            raise SimulationError("negative latency recorded")
        self.counts[self._bin_of(value_ms)] += 1
        self.count += 1
        self.total_ms += value_ms
        self.total_sq_ms += value_ms * value_ms
        if value_ms < self.min_ms:
            self.min_ms = value_ms
        if value_ms > self.max_ms:
            self.max_ms = value_ms
        if value_ms > self.slo_ms:
            self.violations += 1

    def add_array(self, values_ms: np.ndarray) -> None:
        """Vectorised bulk ingestion (the collector feeds whole chunks)."""
        values_ms = np.asarray(values_ms, dtype=float)
        if values_ms.size == 0:
            return
        if values_ms.min() < 0:
            raise SimulationError("negative latency recorded")
        clipped = np.maximum(values_ms, self.lo_ms)
        bins = 1 + np.floor(
            np.log(clipped / self.lo_ms) / self._log_growth
        ).astype(np.int64)
        bins[values_ms <= self.lo_ms] = 0
        np.minimum(bins, self.num_bins - 1, out=bins)
        self.counts += np.bincount(bins, minlength=self.num_bins)
        self.count += int(values_ms.size)
        self.total_ms += float(values_ms.sum())
        self.total_sq_ms += float(np.square(values_ms).sum())
        self.min_ms = min(self.min_ms, float(values_ms.min()))
        self.max_ms = max(self.max_ms, float(values_ms.max()))
        self.violations += int(np.count_nonzero(values_ms > self.slo_ms))

    # -- queries ----------------------------------------------------------
    def _bin_value(self, k: int) -> float:
        if k == 0:
            return self.lo_ms
        # Geometric midpoint of (lo·g^(k-1), lo·g^k].
        return self.lo_ms * self.growth ** (k - 1) * math.sqrt(self.growth)

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (relative error ≤ √growth − 1).

        The extremes are exact: ``quantile(0.0)`` returns the running
        minimum and ``quantile(1.0)`` the running maximum rather than
        the midpoint of whichever bin holds them.
        """
        if not 0.0 <= q <= 1.0:
            raise SimulationError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            raise EmptySketchError("empty sketch has no quantiles")
        if q == 0.0:
            return self.min_ms
        if q == 1.0:
            return self.max_ms
        rank = min(int(math.ceil(q * self.count)), self.count) or 1
        k = int(np.searchsorted(np.cumsum(self.counts), rank))
        return min(max(self._bin_value(k), self.min_ms), self.max_ms)

    def quantiles(self, qs) -> list[float]:
        """Batch :meth:`quantile` (exporter convenience)."""
        return [self.quantile(q) for q in qs]

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0

    def variance(self) -> float:
        if self.count == 0:
            return 0.0
        m = self.mean_ms
        return max(self.total_sq_ms / self.count - m * m, 0.0)

    def stats(self) -> LatencyStats:
        """Sketch-backed :class:`LatencyStats` (quantiles approximate,
        moments/extremes/violation-rate exact).

        Raises :class:`EmptySketchError` on an empty sketch — the stats
        of zero samples would otherwise surface as NaN/inf fields that
        exporters would happily serialize.
        """
        if self.count == 0:
            raise EmptySketchError("no completed requests to summarise")
        return LatencyStats(
            count=self.count,
            mean_ms=self.mean_ms,
            p50_ms=self.quantile(0.50),
            p98_ms=self.quantile(0.98),
            p99_ms=self.quantile(0.99),
            max_ms=self.max_ms,
            slo_violation_rate=self.violations / self.count,
        )

    # -- reduction --------------------------------------------------------
    def _compatible(self, other: "StreamingLatencySummary") -> bool:
        return (
            self.lo_ms == other.lo_ms
            and self.growth == other.growth
            and self.num_bins == other.num_bins
            and self.slo_ms == other.slo_ms
        )

    def merge(self, other: "StreamingLatencySummary") -> None:
        """Absorb another sketch (commutative + associative)."""
        if not self._compatible(other):
            raise SimulationError("cannot merge incompatible sketches")
        self.counts += other.counts
        self.count += other.count
        self.total_ms += other.total_ms
        self.total_sq_ms += other.total_sq_ms
        self.min_ms = min(self.min_ms, other.min_ms)
        self.max_ms = max(self.max_ms, other.max_ms)
        self.violations += other.violations


class MetricsCollector:
    """Streaming per-request records plus step timelines.

    Latencies are appended to plain-list chunks (amortised O(1); list
    appends beat per-element NumPy stores ~5× on the hot path) and
    exposed as one NumPy array at summary time. Each full chunk is also
    folded into a :class:`StreamingLatencySummary`, so an O(1)-memory
    approximate snapshot is available at any time via
    :meth:`snapshot_stats` without touching the exact population.
    """

    _CHUNK = 65_536

    def __init__(self, slo_ms: float):
        if slo_ms <= 0:
            raise SimulationError("SLO must be positive")
        self.slo_ms = slo_ms
        self._chunks: list[np.ndarray] = []
        self._current: list[float] = []
        self._runtime_chunks: list[np.ndarray] = []
        self._current_runtime: list[int] = []
        self.sketch = StreamingLatencySummary(slo_ms=slo_ms)
        #: How many entries of ``_current`` are already in the sketch.
        self._sketched = 0
        #: (time, gpu_count) step samples for the Fig. 8 timeline.
        self.gpu_timeline: list[tuple[float, int]] = []
        #: (time, allocation) samples for the Fig. 12 timeline.
        self.allocation_timeline: list[tuple[float, np.ndarray]] = []
        self.deferred_requests = 0

    # -- per-request ------------------------------------------------------
    def record(self, latency_ms: float, runtime_index: int) -> None:
        if latency_ms < 0:
            raise SimulationError("negative latency recorded")
        current = self._current
        current.append(latency_ms)
        self._current_runtime.append(runtime_index)
        if len(current) == self._CHUNK:
            self._flush_chunk()

    def _flush_chunk(self) -> None:
        chunk = np.asarray(self._current)
        self._chunks.append(chunk)
        self._runtime_chunks.append(
            np.asarray(self._current_runtime, dtype=np.int32)
        )
        self.sketch.add_array(chunk[self._sketched:])
        self._sketched = 0
        self._current = []
        self._current_runtime = []

    def _sync_sketch(self) -> None:
        """Fold not-yet-sketched tail records into the sketch."""
        if self._sketched < len(self._current):
            self.sketch.add_array(np.asarray(self._current[self._sketched:]))
            self._sketched = len(self._current)

    @property
    def completed(self) -> int:
        return len(self._chunks) * self._CHUNK + len(self._current)

    def latencies(self) -> np.ndarray:
        parts = self._chunks + [np.asarray(self._current)]
        return np.concatenate(parts) if parts else np.empty(0)

    def runtime_indexes(self) -> np.ndarray:
        parts = self._runtime_chunks + [
            np.asarray(self._current_runtime, dtype=np.int32)
        ]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int32)

    def stats(self) -> LatencyStats:
        return LatencyStats.from_array(self.latencies(), self.slo_ms)

    def snapshot_stats(self) -> LatencyStats:
        """O(1)-memory approximate stats from the streaming sketch
        (quantile error bounded by the sketch's √growth − 1)."""
        self._sync_sketch()
        return self.sketch.stats()

    def per_runtime_mean(self) -> dict[int, float]:
        """Mean latency by serving runtime (deep-dive reports)."""
        lat = self.latencies()
        idx = self.runtime_indexes()
        return {
            int(r): float(lat[idx == r].mean()) for r in np.unique(idx)
        }

    # -- timelines --------------------------------------------------------
    def sample_gpus(self, now_ms: float, count: int) -> None:
        self.gpu_timeline.append((now_ms, count))

    def sample_allocation(self, now_ms: float, allocation: np.ndarray) -> None:
        self.allocation_timeline.append((now_ms, allocation.copy()))

    def time_weighted_gpus(self, end_ms: float) -> float:
        """Integral of the GPU-count step function divided by the horizon."""
        if not self.gpu_timeline:
            raise SimulationError("no GPU samples collected")
        total = 0.0
        for (t0, n), (t1, _) in zip(self.gpu_timeline, self.gpu_timeline[1:]):
            total += n * (t1 - t0)
        last_t, last_n = self.gpu_timeline[-1]
        total += last_n * max(end_ms - last_t, 0.0)
        horizon = end_ms - self.gpu_timeline[0][0]
        if horizon <= 0:
            return float(last_n)
        return total / horizon
