"""Plain-list Algorithm 1 kept as a test oracle for the Request Scheduler.

This is the candidate walk of §3.4 written the way the paper states it:
list the candidate runtimes (``max_length ≥ length``, ascending), take
each non-empty level's head, and evaluate at most ``L`` of them against
a threshold that starts at ``λ`` and decays by ``α`` on every
rejection. A head the health gate rejects is skipped without consuming
a peek. When nothing passes, the request falls back to the first
evaluated head. No counters, no inlining and no early return: the walk
is materialised as a list first and then read.

Heads come from :meth:`MultiLevelQueue.head` (the least-loaded active
member of a level). The oracle reads the queue and changes nothing else.
``tests/core/test_algorithm1_differential.py`` checks ``select``,
``dispatch``, ``dispatch_fast`` and the probe narration against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cluster.instance import RuntimeInstance
from repro.core.mlq import MultiLevelQueue
from repro.core.request_scheduler import RequestSchedulerConfig
from repro.runtimes.registry import RuntimeRegistry

Probe = tuple[int, float, float, str]


@dataclass(frozen=True)
class Walk:
    """One reference walk. ``instance`` is None when no candidate
    exists (the scheduler raises :class:`CapacityError`)."""

    instance: RuntimeInstance | None
    level: int
    ideal: int
    peeked: int
    fell_back: bool
    #: Heads the gate rejected during the walk (counted even when the
    #: walk finds no candidate).
    gated: int
    probes: tuple[Probe, ...]


def algorithm1(
    registry: RuntimeRegistry,
    mlq: MultiLevelQueue,
    config: RequestSchedulerConfig,
    length: int,
    gate: Callable[[RuntimeInstance], bool] | None = None,
) -> Walk:
    """Algorithm 1 over the queue's current heads."""
    candidates = [
        level for level, profile in enumerate(registry)
        if profile.max_length >= length
    ]
    ideal = candidates[0]
    heads = [(level, mlq.head(level)) for level in candidates]
    heads = [(level, head) for level, head in heads if head is not None]

    probes: list[Probe] = []
    evaluated: list[tuple[int, RuntimeInstance]] = []
    threshold = config.lam
    chosen: tuple[int, RuntimeInstance] | None = None
    for level, head in heads:
        if len(evaluated) == config.max_peek_levels or chosen is not None:
            break
        congestion = head.outstanding / head.capacity
        if gate is not None and not gate(head):
            probes.append((level, congestion, threshold, "gated"))
            continue
        evaluated.append((level, head))
        if congestion < threshold:
            probes.append((level, congestion, threshold, "accepted"))
            chosen = (level, head)
        else:
            probes.append((level, congestion, threshold, "rejected"))
            threshold *= config.alpha

    gated = sum(1 for probe in probes if probe[3] == "gated")
    fell_back = chosen is None
    if fell_back:
        if not evaluated:
            return Walk(None, -1, ideal, 0, True, gated, tuple(probes))
        chosen = evaluated[0]
    level, head = chosen
    return Walk(head, level, ideal, len(evaluated), fell_back, gated,
                tuple(probes))
