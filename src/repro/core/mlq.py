"""The multi-level queue maintained by the Request Scheduler (Fig. 5).

One level per runtime, ordered by increasing ``max_length``. Within a
level, a priority queue keeps the instance with the least outstanding
work at the head. Instance load changes constantly (every enqueue and
completion), so the heap uses *lazy invalidation*: every entry carries
the instance's epoch counter at push time, and stale entries are
discarded on pop. This keeps head queries O(log n) amortised — the
property behind the paper's O(L) + O(log(N/K)) dispatch complexity.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush

from repro.cluster.instance import InstanceStatus, RuntimeInstance
from repro.errors import SchedulingError

_ACTIVE = InstanceStatus.ACTIVE


@dataclass
class InstanceHeap:
    """Min-heap of instances keyed by outstanding load, lazily updated.

    Alongside the heap, the level maintains O(1) congestion aggregates
    (``outstanding_total``, ``capacity_total``) through the same
    add/remove/refresh calls that keep the heap fresh, so the dispatch
    walk can read a level's congestion without touching its members.
    """

    _heap: list[tuple[int, int, int, RuntimeInstance]] = field(default_factory=list)
    _members: dict[int, RuntimeInstance] = field(default_factory=dict)
    _counter: itertools.count = field(default_factory=itertools.count)
    #: Σ outstanding over members, as of their last add/refresh.
    outstanding_total: int = 0
    #: Σ capacity (M_i) over members.
    capacity_total: int = 0
    _last_outstanding: dict[int, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self._members)

    def add(self, instance: RuntimeInstance) -> None:
        if instance.instance_id in self._members:
            raise SchedulingError(
                f"instance {instance.instance_id} already in this level"
            )
        self._members[instance.instance_id] = instance
        self._last_outstanding[instance.instance_id] = instance.outstanding
        self.outstanding_total += instance.outstanding
        self.capacity_total += instance.capacity
        self._push(instance)

    def remove(self, instance: RuntimeInstance) -> None:
        """Remove an instance (stale heap entries expire lazily)."""
        if self._members.pop(instance.instance_id, None) is None:
            raise SchedulingError(
                f"instance {instance.instance_id} not in this level"
            )
        self.outstanding_total -= self._last_outstanding.pop(instance.instance_id)
        self.capacity_total -= instance.capacity

    def refresh(self, instance: RuntimeInstance) -> None:
        """Re-key an instance after its load changed.

        Runs twice per simulated request (enqueue + completion), so the
        heap push is fused in rather than delegated to :meth:`_push`,
        and ``_last_outstanding`` doubles as the membership test (its
        keys mirror ``_members`` by construction).
        """
        last = self._last_outstanding
        key = instance.instance_id
        if key in last:
            out = instance.outstanding
            self.outstanding_total += out - last[key]
            last[key] = out
            heappush(
                self._heap,
                (out, next(self._counter), instance._epoch, instance),
            )

    def congestion(self) -> float:
        """Aggregate ``P = Σ outstanding / Σ capacity`` of the level."""
        if self.capacity_total == 0:
            return float("inf") if self.outstanding_total else 0.0
        return self.outstanding_total / self.capacity_total

    def _push(self, instance: RuntimeInstance) -> None:
        heappush(
            self._heap,
            (instance.outstanding, next(self._counter), instance._epoch, instance),
        )

    def head(self) -> RuntimeInstance | None:
        """Least-loaded *active* member, or None when the level is empty.

        Stale entries (superseded by a later ``refresh``, removed, or
        inactive) are simply discarded on pop — never re-pushed. Every
        load change pushes exactly one fresh entry via :meth:`refresh`,
        so each member's newest entry is always present and valid;
        discarding keeps the total work amortised O(log n) per update
        (re-pushing here instead makes dispatch quadratic under deep
        queues).
        """
        members = self._members
        if not members:
            return None  # skip draining stale entries for an empty level
        heap = self._heap
        while heap:
            entry = heap[0]
            instance = entry[3]
            if (
                entry[2] == instance._epoch
                and instance.status is _ACTIVE
                and instance.instance_id in members
            ):
                return instance
            heappop(heap)
        return None

    def instances(self) -> list[RuntimeInstance]:
        return list(self._members.values())


class MultiLevelQueue:
    """Per-runtime instance heaps plus cross-level operations."""

    def __init__(self, num_levels: int):
        if num_levels < 1:
            raise SchedulingError("need at least one level")
        self.levels: list[InstanceHeap] = [InstanceHeap() for _ in range(num_levels)]
        self._level_of: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.levels)

    def add(self, instance: RuntimeInstance) -> None:
        level = instance.runtime_index
        if not 0 <= level < len(self.levels):
            raise SchedulingError(f"instance targets unknown level {level}")
        self.levels[level].add(instance)
        self._level_of[instance.instance_id] = level
        instance._level_heap = self.levels[level]

    def remove(self, instance: RuntimeInstance) -> None:
        level = self._level_of.pop(instance.instance_id, None)
        if level is None:
            raise SchedulingError(
                f"instance {instance.instance_id} is not tracked"
            )
        self.levels[level].remove(instance)
        instance._level_heap = None

    def refresh(self, instance: RuntimeInstance) -> None:
        level = self._level_of.get(instance.instance_id)
        if level is not None:
            self.levels[level].refresh(instance)

    def contains(self, instance: RuntimeInstance) -> bool:
        return instance.instance_id in self._level_of

    def head(self, level: int) -> RuntimeInstance | None:
        return self.levels[level].head()

    def total_instances(self) -> int:
        return sum(len(lvl) for lvl in self.levels)

    def total_outstanding(self) -> int:
        """Σ outstanding over all queued instances — O(levels)."""
        return sum(lvl.outstanding_total for lvl in self.levels)

    def level_congestion(self, level: int) -> float:
        """Aggregate congestion of one level — O(1)."""
        return self.levels[level].congestion()

    def least_loaded(self, levels: range | list[int]) -> RuntimeInstance | None:
        """Globally least-loaded head across the given levels (IG policy)."""
        best: RuntimeInstance | None = None
        for lv in levels:
            head = self.levels[lv].head()
            if head is not None and (
                best is None or head.outstanding < best.outstanding
            ):
                best = head
        return best

    @classmethod
    def from_cluster(cls, state) -> "MultiLevelQueue":
        """Build and populate from a :class:`ClusterState`."""
        mlq = cls(num_levels=len(state.levels))
        for instance in state.instances.values():
            if instance.is_active:
                mlq.add(instance)
        return mlq
