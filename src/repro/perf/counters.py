"""O(1) congestion accounting for the data path.

The autoscaler samples cluster utilisation every second of simulated
time and snapshots read ``total_outstanding`` constantly; recomputing
those by iterating every instance is O(instances) work on the hot path.
The :class:`CongestionTracker` instead maintains the aggregates through
the instance lifecycle transitions themselves, so every query is O(1):

- ``activate``/``deactivate`` move an instance's outstanding work and
  capacity into/out of the *active* aggregates (deploy, resume vs
  drain, suspend, crash, retire);
- ``on_enqueue``/``on_complete`` adjust per-level outstanding by ±1;
- crash/blackout work loss flows through ``on_loss`` so the all-status
  outstanding total (which includes draining donors) stays exact.

Membership is tracked per instance id, making every transition
idempotent — a double ``deactivate`` (e.g. drain followed by crash)
cannot double-subtract. :meth:`verify` recomputes the aggregates from
scratch so tests can certify conservation under arbitrary interleavings
of retries, quarantine, and replacement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class CongestionTracker:
    """Per-level outstanding/capacity aggregates over active instances."""

    num_levels: int
    #: Outstanding work per level, active instances only. Plain Python
    #: lists, not arrays: ``on_enqueue``/``on_complete`` run twice per
    #: simulated request, and a scalar numpy ``arr[i] += 1`` costs ~10×
    #: a list element update.
    outstanding: list[int] = field(init=False)
    #: Σ capacity (M_i) per level, active instances only.
    capacity: list[int] = field(init=False)
    #: Active instance count per level (the allocation vector ``N``).
    active: list[int] = field(init=False)
    #: Outstanding over *all* live instances (active + draining), the
    #: quantity ``ClusterState.total_outstanding`` reports.
    all_outstanding: int = field(default=0, init=False)
    #: Requests currently inside a decode batch per level, over *all*
    #: live instances (like ``all_outstanding``, not gated on active
    #: membership — a draining donor keeps decoding its batch). Always
    #: zero on the discriminative path; the generative event loop
    #: maintains it so congestion probes and the allocation reports can
    #: split a level's outstanding into queued-vs-decoding phases.
    decoding: list[int] = field(init=False)
    _counted: set = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        if self.num_levels < 1:
            raise ConfigurationError("need at least one level")
        self.outstanding = [0] * self.num_levels
        self.capacity = [0] * self.num_levels
        self.active = [0] * self.num_levels
        self.decoding = [0] * self.num_levels

    # -- lifecycle transitions ------------------------------------------------
    def activate(self, instance) -> None:
        """Count an instance as active (deploy / blackout resume)."""
        if instance.instance_id in self._counted:
            return
        self._counted.add(instance.instance_id)
        lvl = instance.runtime_index
        self.outstanding[lvl] += instance.outstanding
        self.capacity[lvl] += instance.capacity
        self.active[lvl] += 1

    def deactivate(self, instance) -> None:
        """Stop counting an instance (drain/suspend/crash/retire)."""
        if instance.instance_id not in self._counted:
            return
        self._counted.discard(instance.instance_id)
        lvl = instance.runtime_index
        self.outstanding[lvl] -= instance.outstanding
        self.capacity[lvl] -= instance.capacity
        self.active[lvl] -= 1

    # -- work accounting ------------------------------------------------------
    def on_enqueue(self, instance) -> None:
        """One request admitted (called after ``outstanding += 1``)."""
        self.all_outstanding += 1
        if instance.instance_id in self._counted:
            self.outstanding[instance.runtime_index] += 1

    def on_complete(self, instance) -> None:
        """One request finished (called after ``outstanding -= 1``)."""
        self.all_outstanding -= 1
        if instance.instance_id in self._counted:
            self.outstanding[instance.runtime_index] -= 1

    def on_loss(self, outstanding_lost: int) -> None:
        """Work voided in bulk by a crash/blackout (before zeroing).

        The per-level active aggregates are reconciled by the matching
        ``deactivate``; only the all-status total needs the explicit
        delta because the lost requests never complete.
        """
        self.all_outstanding -= outstanding_lost

    # -- decode-phase accounting (generative data plane) -----------------------
    def on_decode_start(self, instance) -> None:
        """One request joined an instance's decode batch."""
        self.decoding[instance.runtime_index] += 1

    def on_decode_end(self, instance) -> None:
        """One request finished (or left) its decode batch."""
        self.decoding[instance.runtime_index] -= 1

    def on_decode_loss(self, instance, count: int) -> None:
        """``count`` in-batch requests voided by a crash/blackout."""
        self.decoding[instance.runtime_index] -= count

    # -- O(1) queries ----------------------------------------------------------
    def allocation(self) -> np.ndarray:
        """Active instance counts per level (the ILP's ``N`` vector)."""
        return np.asarray(self.active, dtype=np.int64)

    def total_capacity(self) -> int:
        return sum(self.capacity)

    def utilization(self) -> float:
        """Outstanding over within-SLO capacity across active instances
        (can exceed 1); 1.0 when no capacity is deployed."""
        cap = sum(self.capacity)
        if cap == 0:
            return 1.0
        return sum(self.outstanding) / cap

    def level_congestion(self, level: int) -> float:
        """Aggregate ``P = outstanding / capacity`` of one level."""
        cap = int(self.capacity[level])
        if cap == 0:
            return float("inf") if self.outstanding[level] else 0.0
        return int(self.outstanding[level]) / cap

    def total_decoding(self) -> int:
        return sum(self.decoding)

    # -- certification ---------------------------------------------------------
    def verify(self, instances) -> None:
        """Recompute from scratch and assert the counters conserve.

        ``instances`` is any iterable of live instances (e.g.
        ``cluster.instances.values()``). Raises ``AssertionError`` on
        the first divergence — used by tests and debug builds.
        """
        outstanding = [0] * self.num_levels
        capacity = [0] * self.num_levels
        active = [0] * self.num_levels
        total_all = 0
        for inst in instances:
            total_all += inst.outstanding
            if inst.is_active:
                outstanding[inst.runtime_index] += inst.outstanding
                capacity[inst.runtime_index] += inst.capacity
                active[inst.runtime_index] += 1
        assert np.array_equal(outstanding, self.outstanding), (
            f"outstanding diverged: {self.outstanding} != {outstanding}"
        )
        assert np.array_equal(capacity, self.capacity), (
            f"capacity diverged: {self.capacity} != {capacity}"
        )
        assert np.array_equal(active, self.active), (
            f"active diverged: {self.active} != {active}"
        )
        assert total_all == self.all_outstanding, (
            f"all-status outstanding diverged: "
            f"{self.all_outstanding} != {total_all}"
        )
