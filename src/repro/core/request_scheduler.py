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
        self, length: int
    ) -> tuple[RuntimeInstance, int, int, int, bool]:
        """Algorithm 1's candidate walk, shared by both dispatch paths.

        Returns ``(instance, level, ideal, peeked, fell_back)`` without
        allocating a decision object. Levels that currently have no
        instances are skipped without consuming a peek or decaying the
        threshold (there is nothing to evaluate); the paper's cluster
        always has a populated top level thanks to Eq. 7.
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
        while level < num_levels:
            if peeked >= max_peek:
                break
            head = levels[level].head()
            if head is not None:
                if gate is not None and not gate(head):
                    self.gated += 1
                    level += 1
                    continue
                if first_nonempty is None:
                    first_nonempty = head
                    first_level = level
                peeked += 1
                # head.congestion() < lam, with the division inlined
                # (identical float arithmetic, no method call).
                if head.outstanding / head._capacity < lam:
                    return head, level, ideal, peeked, False
                lam *= alpha
            level += 1
        if first_nonempty is None:
            raise CapacityError(
                f"no deployed runtime can serve a request of length {length}"
            )
        return first_nonempty, first_level, ideal, peeked, True

    def select(self, length: int) -> DispatchDecision:
        """Algorithm 1: pick the runtime instance for one request."""
        head, level, ideal, peeked, fell_back = self._walk(length)
        return self._done(head, level, ideal, peeked, fell_back=fell_back)

    def _done(
        self,
        instance: RuntimeInstance,
        level: int,
        ideal: int,
        peeked: int,
        fell_back: bool,
    ) -> DispatchDecision:
        self.dispatched += 1
        if level > ideal:
            self.demotions += 1
        if fell_back:
            self.fallbacks += 1
        return DispatchDecision(
            instance=instance,
            level=level,
            ideal_level=ideal,
            levels_peeked=peeked,
            fell_back=fell_back,
        )

    def dispatch(self, now_ms: float, length: int) -> tuple[DispatchDecision, float, float]:
        """Select, enqueue, and refresh the queue (Algorithm 1 lines 21–22).

        Returns (decision, service start, completion time).
        """
        decision = self.select(length)
        start, finish = decision.instance.enqueue(now_ms, length)
        self.mlq.refresh(decision.instance)
        return decision, start, finish

    def dispatch_traced(
        self,
        now_ms: float,
        length: int,
        probes: list[tuple[int, float, float, str]],
    ) -> tuple[DispatchDecision, float, float]:
        """:meth:`dispatch` with the candidate walk narrated into
        ``probes`` — one ``(level, P, threshold, verdict)`` tuple per
        evaluated level, verdicts ``accepted`` / ``rejected`` /
        ``gated``.

        This is the sampled-request path of the observability layer:
        only requests the tracer selected pay for it, so it stays a
        faithful (non-inlined) mirror of :meth:`_walk` — counters and
        the chosen instance are identical to the fast path.
        """
        ideal = self.registry.ideal_index(length)
        levels = self.mlq.levels
        num_levels = len(levels)
        gate = self.gate
        lam = self._lam
        alpha = self._alpha
        max_peek = self._max_peek
        peeked = 0
        first_nonempty: RuntimeInstance | None = None
        first_level = -1
        chosen: RuntimeInstance | None = None
        chosen_level = -1
        level = ideal
        while level < num_levels:
            if peeked >= max_peek:
                break
            head = levels[level].head()
            if head is not None:
                p = head.outstanding / head._capacity
                if gate is not None and not gate(head):
                    self.gated += 1
                    probes.append((level, p, lam, "gated"))
                    level += 1
                    continue
                if first_nonempty is None:
                    first_nonempty = head
                    first_level = level
                peeked += 1
                if p < lam:
                    probes.append((level, p, lam, "accepted"))
                    chosen, chosen_level = head, level
                    break
                probes.append((level, p, lam, "rejected"))
                lam *= alpha
            level += 1
        fell_back = chosen is None
        if fell_back:
            if first_nonempty is None:
                raise CapacityError(
                    f"no deployed runtime can serve a request of length "
                    f"{length}"
                )
            chosen, chosen_level = first_nonempty, first_level
        decision = self._done(
            chosen, chosen_level, ideal, peeked, fell_back=fell_back
        )
        start, finish = chosen.enqueue(now_ms, length)
        self.mlq.refresh(chosen)
        return decision, start, finish

    def dispatch_fast(
        self, now_ms: float, length: int
    ) -> tuple[RuntimeInstance, float, float]:
        """Hot-path dispatch: Algorithm 1 without materialising a
        :class:`DispatchDecision` (the simulator calls this once per
        arrival; counters stay exact).

        The candidate walk is a hand-fused copy of :meth:`_walk` with
        ``InstanceHeap.head``, ``RuntimeInstance.enqueue``, and
        ``InstanceHeap.refresh`` inlined — this method runs once per
        simulated request and each call layer is measurable. The
        enqueue validation is provably redundant here: ``ideal_index``
        rejects non-positive and oversized lengths, every level ≥ ideal
        fits the request, and ``head`` only yields ACTIVE members. Any
        behavioural change must be mirrored in the originals (the
        serial/sharded equivalence tests catch divergence).

        Returns (instance, service start, completion time).
        """
        ideal = self.registry.ideal_index(length)
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
        head = None
        while level < num_levels:
            if peeked >= max_peek:
                break
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
                if gate is not None and not gate(head):
                    self.gated += 1
                    head = None
                    level += 1
                    continue
                if first_nonempty is None:
                    first_nonempty = head
                    first_level = level
                peeked += 1
                if head.outstanding / head._capacity < lam:
                    break
                lam *= alpha
            head = None
            level += 1
        if head is None:
            if first_nonempty is None:
                raise CapacityError(
                    f"no deployed runtime can serve a request of length "
                    f"{length}"
                )
            head = first_nonempty
            level = first_level
            self.fallbacks += 1
        self.dispatched += 1
        if level > ideal:
            self.demotions += 1
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
        level_heap = levels[level]
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
