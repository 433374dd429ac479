"""The Request Scheduler — Algorithm 1 of the paper (§3.4).

On each arrival the scheduler walks the candidate runtimes (those whose
``max_length`` fits the request) in increasing ``max_length`` order,
peeking at most ``L`` levels. A level's head instance is accepted when
its congestion ``P = outstanding / capacity`` is below the threshold
``λ``; every rejection decays the threshold by ``α``, making demotion
progressively *harder* — the conservative-demotion intuition that keeps
larger runtimes free for the longer requests only they can serve. When
no candidate passes, the request falls back to the head of its ideal
(top candidate) runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable

from repro.cluster.instance import _ACTIVE, RuntimeInstance
from repro.core.mlq import MultiLevelQueue
from repro.errors import CapacityError, ConfigurationError
from repro.runtimes.registry import RuntimeRegistry


@dataclass(frozen=True)
class RequestSchedulerConfig:
    """Algorithm 1 parameters (paper defaults: λ=0.85, α=0.9, L=6)."""

    lam: float = 0.85
    alpha: float = 0.9
    max_peek_levels: int = 6

    def __post_init__(self) -> None:
        if not 0 < self.lam <= 1.0:
            raise ConfigurationError("λ must be in (0, 1]")
        if not 0 < self.alpha <= 1.0:
            raise ConfigurationError("α must be in (0, 1]")
        if self.max_peek_levels < 1:
            raise ConfigurationError("L must be >= 1")


@dataclass
class DispatchDecision:
    """Where a request went and why (for tests and deep-dive reports)."""

    instance: RuntimeInstance
    level: int
    ideal_level: int
    levels_peeked: int
    fell_back: bool

    @property
    def demoted(self) -> bool:
        return self.level > self.ideal_level


@dataclass
class ArloRequestScheduler:
    """Stateful dispatcher over a multi-level queue."""

    registry: RuntimeRegistry
    mlq: MultiLevelQueue
    config: RequestSchedulerConfig = field(default_factory=RequestSchedulerConfig)
    #: Health gate (circuit breaker): when set, a head instance the gate
    #: rejects is treated as absent — the level is skipped without
    #: consuming a peek. Wired by the resilience subsystem; None = no
    #: gating (every MLQ member is dispatchable).
    gate: Callable[[RuntimeInstance], bool] | None = None
    #: Dispatch counters for the deep-dive reports.
    dispatched: int = 0
    demotions: int = 0
    fallbacks: int = 0
    gated: int = 0

    def __post_init__(self) -> None:
        if len(self.mlq) != len(self.registry):
            raise ConfigurationError(
                "multi-level queue arity must match the polymorph set"
            )
        # Hot-path copies of the (frozen) config scalars: `_walk` runs
        # once per request and attribute-chasing through the config
        # dataclass costs more than the walk's own arithmetic.
        self._lam = self.config.lam
        self._alpha = self.config.alpha
        self._max_peek = self.config.max_peek_levels

    def _walk(
        self,
        length: int,
        probes: list[tuple[int, float, float, str]] | None = None,
    ) -> tuple[RuntimeInstance, int, int, int, bool]:
        """Algorithm 1's candidate walk — the one every entry point runs.

        Returns ``(instance, level, ideal, peeked, fell_back)`` without
        allocating a decision object, and counts the dispatch in
        ``dispatched``/``demotions``/``fallbacks``/``gated``. Levels
        that currently have no instances are skipped without consuming
        a peek or decaying the threshold (there is nothing to
        evaluate); the paper's cluster always has a populated top level
        thanks to Eq. 7.

        When ``probes`` is a list, the walk is narrated into it: one
        ``(level, P, threshold, verdict)`` tuple per evaluated head,
        verdicts ``accepted`` / ``rejected`` / ``gated``. The tracer
        passes one for sampled requests only.

        ``InstanceHeap.head`` is inlined: the walk runs once per
        simulated request and each call layer is measurable.
        """
        ideal = self.registry.ideal_index(length)  # candidates ascend from here
        levels = self.mlq.levels
        num_levels = len(levels)
        gate = self.gate
        lam = self._lam
        alpha = self._alpha
        max_peek = self._max_peek
        peeked = 0
        first_nonempty: RuntimeInstance | None = None
        first_level = -1
        level = ideal
        while level < num_levels and peeked < max_peek:
            # --- InstanceHeap.head, inlined (lazy stale-entry discard)
            level_heap = levels[level]
            members = level_heap._members
            head = None
            if members:
                entry_heap = level_heap._heap
                while entry_heap:
                    entry = entry_heap[0]
                    candidate = entry[3]
                    if (
                        entry[2] == candidate._epoch
                        and candidate.status is _ACTIVE
                        and candidate.instance_id in members
                    ):
                        head = candidate
                        break
                    heappop(entry_heap)
            if head is not None:
                # head.congestion(), with the division inlined
                # (identical float arithmetic, no method call).
                p = head.outstanding / head._capacity
                if gate is not None and not gate(head):
                    self.gated += 1
                    if probes is not None:
                        probes.append((level, p, lam, "gated"))
                    level += 1
                    continue
                if first_nonempty is None:
                    first_nonempty = head
                    first_level = level
                peeked += 1
                if p < lam:
                    if probes is not None:
                        probes.append((level, p, lam, "accepted"))
                    self.dispatched += 1
                    if level > ideal:
                        self.demotions += 1
                    return head, level, ideal, peeked, False
                if probes is not None:
                    probes.append((level, p, lam, "rejected"))
                lam *= alpha
            level += 1
        if first_nonempty is None:
            raise CapacityError(
                f"no deployed runtime can serve a request of length {length}"
            )
        self.dispatched += 1
        self.fallbacks += 1
        if first_level > ideal:
            self.demotions += 1
        return first_nonempty, first_level, ideal, peeked, True

    def select(self, length: int) -> DispatchDecision:
        """Algorithm 1: pick the runtime instance for one request."""
        return DispatchDecision(*self._walk(length))

    def dispatch(
        self,
        now_ms: float,
        length: int,
        probes: list[tuple[int, float, float, str]] | None = None,
    ) -> tuple[DispatchDecision, float, float]:
        """Select, enqueue, and refresh the queue (Algorithm 1 lines 21–22).

        ``probes`` collects the walk's narration (see :meth:`_walk`).
        Returns (decision, service start, completion time).
        """
        decision = DispatchDecision(*self._walk(length, probes))
        instance = decision.instance
        start, finish = instance.enqueue(now_ms, length)
        self.mlq.refresh(instance)
        return decision, start, finish

    def dispatch_fast(
        self, now_ms: float, length: int
    ) -> tuple[RuntimeInstance, float, float]:
        """Hot-path dispatch: :meth:`dispatch` without materialising a
        :class:`DispatchDecision` (the simulator calls this once per
        arrival; counters stay exact).

        ``RuntimeInstance.enqueue`` and ``InstanceHeap.refresh`` are
        inlined. The enqueue validation is provably redundant here:
        ``ideal_index`` rejects non-positive and oversized lengths,
        every level ≥ ideal fits the request, and the walk only yields
        ACTIVE heads. ``tests/core/test_algorithm1_differential.py``
        checks this path against the reference walk.

        Returns (instance, service start, completion time).
        """
        head, level, _ideal, _peeked, _fell_back = self._walk(length)
        # --- RuntimeInstance.enqueue, inlined (validation elided — see
        # docstring) ---
        service = head._service_table[length] * head.slow_factor
        busy = head.busy_until_ms
        start = now_ms if now_ms > busy else busy
        finish = start + service
        head.busy_until_ms = finish
        out = head.outstanding + 1
        head.outstanding = out
        head._epoch += 1
        tracker = head.tracker
        if tracker is not None:
            tracker.on_enqueue(head)
        # --- InstanceHeap.refresh, inlined. The chosen instance is by
        # construction a member of its own level's heap, so both the
        # MultiLevelQueue level lookup and the membership test go away.
        level_heap = self.mlq.levels[level]
        last = level_heap._last_outstanding
        key = head.instance_id
        level_heap.outstanding_total += out - last[key]
        last[key] = out
        heappush(
            level_heap._heap,
            (out, next(level_heap._counter), head._epoch, head),
        )
        return head, start, finish

    def stats(self) -> dict[str, float]:
        """Aggregate dispatch statistics (queue state read in O(levels))."""
        d = max(self.dispatched, 1)
        return {
            "dispatched": float(self.dispatched),
            "demotion_rate": self.demotions / d,
            "fallback_rate": self.fallbacks / d,
            "gated": float(self.gated),
            "queue_outstanding": float(self.mlq.total_outstanding()),
            "queue_instances": float(self.mlq.total_instances()),
        }

    def level_congestion(self, level: int) -> float:
        """Aggregate congestion of one MLQ level — O(1)."""
        return self.mlq.level_congestion(level)
