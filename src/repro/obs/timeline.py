"""The control-plane timeline: one ordered stream of control events.

The control plane acts through four independent subsystems — the
Runtime Scheduler's periodic allocation solves (Eqs. 1-7), the
replacement controller's drain/swap plans, the autoscaler, and the
resilience manager's circuit breakers — each of which previously kept
only private counters. Diagnosing a run ("why did p99 spike at
t=41s?") needs their actions *interleaved in time*: a breaker opening
explains a demotion burst, a replacement drain explains a queue build,
a fallback-hold solve explains a stale allocation. The timeline is
that interleaving: every subsystem records :class:`TimelineEvent`
rows into one shared :class:`ControlTimeline`, append-only and
time-ordered (the simulator's clock is monotonic within a run).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The closed set of event categories (mirrored in the JSON schema).
CATEGORIES = (
    "allocation",
    "replacement",
    "autoscaler",
    "breaker",
    "fault",
    "server",
    "pool",
)


@dataclass(frozen=True)
class TimelineEvent:
    """One control-plane action.

    ``category`` names the subsystem (see :data:`CATEGORIES`);
    ``kind`` is the action within it (e.g. ``solve``, ``open``,
    ``scale_out``); ``detail`` carries the event-specific payload
    (JSON-serialisable scalars only).
    """

    time_ms: float
    category: str
    kind: str
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON form (matches ``timeline_event.schema.json``)."""
        return {
            "time_ms": self.time_ms,
            "category": self.category,
            "kind": self.kind,
            "detail": self.detail,
        }


class ControlTimeline:
    """Append-only, queryable stream of :class:`TimelineEvent` rows."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[TimelineEvent] = []

    def record(self, time_ms: float, category: str, kind: str,
               **detail) -> None:
        if category not in CATEGORIES:
            raise ValueError(f"unknown timeline category: {category!r}")
        self.events.append(TimelineEvent(time_ms, category, kind, detail))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def query(self, category: str | None = None, kind: str | None = None,
              since_ms: float = 0.0,
              until_ms: float = float("inf")) -> list[TimelineEvent]:
        """Events filtered by category/kind and half-open time window."""
        return [
            e for e in self.events
            if (category is None or e.category == category)
            and (kind is None or e.kind == kind)
            and since_ms <= e.time_ms < until_ms
        ]

    def counts(self) -> dict[str, int]:
        """``{"category/kind": n}`` histogram of the whole stream."""
        out: dict[str, int] = {}
        for e in self.events:
            key = f"{e.category}/{e.kind}"
            out[key] = out.get(key, 0) + 1
        return out
