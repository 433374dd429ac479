"""Runtime registry: the polymorph set and its lookup structure.

The registry owns the sorted list of compiled runtimes for one model
and answers the query every scheduler needs: *which runtimes can accept
a request of this length?* (all runtimes with ``max_length ≥ len``,
in ascending ``max_length`` order — the candidate list of Algorithm 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CapacityError, ConfigurationError
from repro.runtimes.compiler import CompiledRuntime, SimulatedCompiler
from repro.runtimes.models import ModelProfile
from repro.runtimes.profiler import OfflineProfiler, RuntimeProfile
from repro.runtimes.staircase import detect_step_size, polymorph_lengths


@dataclass
class RuntimeRegistry:
    """Sorted polymorph set with O(log I) candidate lookup."""

    profiles: list[RuntimeProfile]
    _max_lengths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.profiles:
            raise ConfigurationError("registry needs at least one runtime")
        lengths = [p.max_length for p in self.profiles]
        if lengths != sorted(lengths) or len(set(lengths)) != len(lengths):
            raise ConfigurationError(
                "profiles must be sorted by strictly increasing max_length"
            )
        self._max_lengths = np.asarray(lengths)
        # length -> ideal runtime index, precomputed so the per-request
        # dispatch walk costs one list index instead of a bisect.
        self._ideal_lookup: list[int] = np.searchsorted(
            self._max_lengths, np.arange(lengths[-1] + 1), side="left"
        ).tolist()
        self._num_profiles = len(self.profiles)

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self):
        return iter(self.profiles)

    def __getitem__(self, index: int) -> RuntimeProfile:
        return self.profiles[index]

    @property
    def max_length(self) -> int:
        """The largest servable request length."""
        return int(self._max_lengths[-1])

    def ideal_index(self, length: int) -> int:
        """Index of the *ideal* runtime: smallest ``max_length ≥ length``."""
        if length <= 0:
            raise CapacityError(f"invalid request length {length}")
        try:
            return self._ideal_lookup[length]
        except IndexError:
            raise CapacityError(
                f"request length {length} exceeds largest runtime "
                f"({self.max_length})"
            ) from None

    def candidate_indexes(self, length: int) -> range:
        """All candidate runtime indexes for a request, ascending
        ``max_length`` (Algorithm 1 line 2)."""
        return range(self.ideal_index(length), len(self.profiles))

    def bin_index(self, length: int) -> int:
        """Length-bin of a request == index of its ideal runtime (§3.1 ①)."""
        return self.ideal_index(length)

    def bin_edges(self) -> np.ndarray:
        """Upper edge of each length bin (the runtimes' max_lengths)."""
        return self._max_lengths.copy()

    def histogram(self, lengths: np.ndarray) -> np.ndarray:
        """Count requests per length bin (vectorised over a trace slice)."""
        lengths = np.asarray(lengths)
        if lengths.size and (lengths.min() <= 0 or lengths.max() > self.max_length):
            raise CapacityError("trace contains unservable lengths")
        return np.bincount(
            np.searchsorted(self._max_lengths, lengths, side="left"),
            minlength=len(self.profiles),
        ).astype(np.int64)


def build_polymorph_set(
    model: ModelProfile,
    *,
    compiler: SimulatedCompiler | None = None,
    profiler: OfflineProfiler | None = None,
    max_lengths: list[int] | None = None,
    detect_step: bool = False,
) -> RuntimeRegistry:
    """End-to-end offline stage: fragment → compile → profile (Fig. 3 ①–③).

    By default the ladder is every multiple of the model's staircase step
    up to its maximum length (8 runtimes for BERT at step 64). Passing
    ``detect_step=True`` instead *measures* the step from a profiled
    latency curve, exercising the §3.3 detection path. ``max_lengths``
    overrides the ladder entirely (used by the Fig. 11 runtime-count
    ablation).
    """
    compiler = compiler or SimulatedCompiler()
    profiler = profiler or OfflineProfiler()
    if max_lengths is None:
        step = model.step
        if detect_step:
            probe = compiler.compile_dynamic(model)
            lengths = np.arange(8, model.max_length + 1, 8)
            curve = np.asarray(
                [model.static_latency.compute_ms(int(ln)) for ln in lengths]
            )
            step = detect_step_size(lengths, curve)
            del probe  # the dynamic probe runtime is not part of the set
        max_lengths = polymorph_lengths(model.max_length, step)
    runtimes: list[CompiledRuntime] = compiler.compile_polymorph_set(
        model, max_lengths
    )
    profiles = profiler.profile_set(runtimes, model.slo_ms)
    return RuntimeRegistry(profiles=profiles)
