"""Offline profiler (paper Fig. 3, step ③).

Before serving, Arlo measures each compiled runtime to obtain:

- ``service_ms`` — the mean per-request execution time (for a static
  runtime this is the time at its compiled ``max_length``);
- ``capacity`` (``M_i``) — the maximum number of requests one instance
  can complete within an SLO window, ``floor(SLO / service)``;
- ``latency_for_batch`` (``L_i``) — the mapping from per-instance
  workload ``B`` (requests handed to an instance within one SLO window,
  batch size 1) to the mean latency those requests experience. Under
  FIFO with work arriving at the window start, request ``k`` waits
  ``(k-1)·service``; the mean over ``B`` requests is
  ``overhead + service·(B+1)/2``.

Measurements are taken with multiplicative noise so downstream code is
exercised against realistic, non-exact profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ProfileError
from repro.runtimes.compiler import CompiledRuntime
from repro.units import PER_REQUEST_OVERHEAD_MS


@dataclass(frozen=True)
class RuntimeProfile:
    """Profiled performance of one runtime under a given SLO."""

    runtime: CompiledRuntime
    slo_ms: float
    service_ms: float
    overhead_ms: float = PER_REQUEST_OVERHEAD_MS

    def __post_init__(self) -> None:
        if self.service_ms <= 0:
            raise ProfileError("profiled service time must be positive")
        if self.slo_ms <= self.service_ms:
            raise ProfileError(
                f"SLO {self.slo_ms} ms cannot even fit one request "
                f"({self.service_ms} ms) on {self.runtime.spec.key}"
            )

    @cached_property
    def capacity(self) -> int:
        """``M_i``: requests one instance completes within one SLO window."""
        return max(1, math.floor(self.slo_ms / (self.service_ms + self.overhead_ms)))

    @property
    def max_length(self) -> int:
        return self.runtime.max_length

    @cached_property
    def service_table_ms(self) -> list[float]:
        """Per-length total service time: ``runtime.service_ms(L) +
        overhead_ms`` for every servable L, indexed by length (index 0
        is a NaN sentinel). Instances read this on every enqueue instead
        of re-walking the latency model per request."""
        svc = self.runtime.service_ms
        overhead = self.overhead_ms
        return [math.nan] + [svc(ln) + overhead
                             for ln in range(1, self.max_length + 1)]

    def latency_for_batch(self, batch: float) -> float:
        """``L_i(B)``: mean latency when an instance serves ``B`` requests
        within one SLO window (batch size 1, FIFO)."""
        if batch < 0:
            raise ProfileError("workload cannot be negative")
        effective = max(batch, 1.0)
        return self.overhead_ms + (self.service_ms) * (effective + 1.0) / 2.0

    def total_cost(self, batch: float, count: float) -> float:
        """Objective contribution ``L_i(B)·C`` of ``count`` requests."""
        return self.latency_for_batch(batch) * count


class OfflineProfiler:
    """Measures runtimes by sampling their latency model with noise."""

    def __init__(self, repeats: int = 32, noise: float = 0.01, seed: int = 7):
        if repeats < 1:
            raise ProfileError("need at least one measurement repeat")
        if not 0 <= noise < 0.2:
            raise ProfileError("noise fraction out of the sane range [0, 0.2)")
        self.repeats = repeats
        self.noise = noise
        self._rng = np.random.default_rng(seed)

    def measure_ms(self, runtime: CompiledRuntime, length: int) -> float:
        """One mean measurement of ``runtime`` at ``length`` tokens."""
        true_ms = runtime.service_ms(length)
        if self.noise == 0:
            return true_ms
        samples = true_ms * self._rng.normal(1.0, self.noise, size=self.repeats)
        return float(np.mean(np.maximum(samples, 1e-6)))

    def latency_curve(
        self, runtime: CompiledRuntime, lengths: list[int]
    ) -> list[float]:
        """Measured latency at each requested length (Fig. 2 series)."""
        return [self.measure_ms(runtime, ln) for ln in lengths]

    def profile(self, runtime: CompiledRuntime, slo_ms: float) -> RuntimeProfile:
        """Produce the :class:`RuntimeProfile` the schedulers consume."""
        service = self.measure_ms(runtime, runtime.max_length)
        return RuntimeProfile(runtime=runtime, slo_ms=slo_ms, service_ms=service)

    def profile_set(
        self, runtimes: list[CompiledRuntime], slo_ms: float
    ) -> list[RuntimeProfile]:
        """Profile a polymorph set; preserves the ascending-length order."""
        if not runtimes:
            raise ProfileError("nothing to profile")
        lengths = [r.max_length for r in runtimes]
        if lengths != sorted(lengths):
            raise ProfileError("polymorph set must be sorted by max_length")
        return [self.profile(r, slo_ms) for r in runtimes]
