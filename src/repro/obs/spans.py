"""Per-request trace spans for the dispatch/service life cycle.

A :class:`RequestSpan` records one request's path through the system:
admission, the Algorithm-1 level walk (each congestion probe ``P``
against the decayed threshold ``λ·α^k``), the dispatch verdict
(including demotion and breaker gating), every retry attempt, and the
terminal completion or loss. Spans are sampled per *request* — either
all of a request's attempts are traced or none are — by a deterministic
hash of the request id, so a given ``(request_id, sample_rate)`` pair
yields the same verdict in every run, shard, and process.

Overhead contract
-----------------
``RequestTracer.enabled`` is False when ``sample_rate == 0``; the
simulator then skips every hook behind a single attribute check and
**zero** :class:`RequestSpan` objects are allocated (asserted by the
``total_allocated`` class counter, the same pattern the event pool
uses). ``bench_perf_hotpaths`` gates the tracing-disabled events/s
within 5% of the committed baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Knuth's multiplicative hash constant — spreads sequential request
#: ids uniformly over 32 bits so rate ``r`` samples ~``r`` of them.
_HASH_MULT = 2654435761
_HASH_MASK = 0xFFFFFFFF


@dataclass(frozen=True)
class ObservabilityConfig:
    """Tracing knobs, attached to ``SimulationConfig.observability``.

    ``sample_rate`` is the fraction of requests traced (0 disables
    span tracing entirely; 1 traces every request). ``timeline``
    toggles the control-plane event stream. ``max_spans`` bounds
    retained finished spans (0 = unbounded) so long runs at high
    sample rates cannot exhaust memory.
    """

    sample_rate: float = 0.0
    timeline: bool = True
    max_spans: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ConfigurationError(
                f"sample_rate must be in [0, 1], got {self.sample_rate}"
            )
        if self.max_spans < 0:
            raise ConfigurationError("max_spans must be >= 0")


class RequestSpan:
    """One sampled request's recorded life cycle.

    ``events`` is an ordered list of phase dicts; every dict carries
    ``phase`` and ``t_ms``. Phases and their extra keys:

    - ``admit`` — ``length``, ``attempt``
    - ``probe`` — ``level``, ``p``, ``threshold``, ``verdict``
      (``accepted`` / ``rejected`` / ``gated``)
    - ``dispatch`` — ``level``, ``ideal_level``, ``demoted``,
      ``fallback``, ``instance``
    - ``defer`` — no extras (dispatch failed; request queued)
    - ``retry`` — ``attempt``, ``delay_ms`` (backoff before re-entry)
    - ``first_token`` — ``ttft_ms``, ``batch_size`` (generative data
      plane: the request's first decode step finished)
    - ``lost`` — ``reason``
    - ``complete`` — ``latency_ms``, ``service_ms``, plus
      ``decode_steps`` on the generative path
    """

    __slots__ = (
        "request_id",
        "arrival_ms",
        "length",
        "events",
        "final_phase",
        "latency_ms",
        "service_ms",
        "retry_wait_ms",
        "attempts",
        "level",
        "ideal_level",
        "demoted",
    )

    #: Class-level allocation counter (mirrors the CompletionRecord
    #: pool's) — lets tests assert sampling-off runs allocate nothing.
    total_allocated = 0

    def __init__(self, request_id: int, arrival_ms: float, length: int):
        RequestSpan.total_allocated += 1
        self.request_id = request_id
        self.arrival_ms = arrival_ms
        self.length = length
        self.events: list[dict] = []
        self.final_phase = "open"
        self.latency_ms = 0.0
        self.service_ms = 0.0
        self.retry_wait_ms = 0.0
        self.attempts = 0
        self.level = -1
        self.ideal_level = -1
        self.demoted = False

    @property
    def queue_ms(self) -> float:
        """Latency not explained by service time or retry backoff."""
        return max(0.0, self.latency_ms - self.service_ms - self.retry_wait_ms)

    def to_dict(self) -> dict:
        """JSON-serialisable form (matches ``trace_span.schema.json``)."""
        return {
            "request_id": self.request_id,
            "arrival_ms": self.arrival_ms,
            "length": self.length,
            "final_phase": self.final_phase,
            "latency_ms": self.latency_ms,
            "service_ms": self.service_ms,
            "retry_wait_ms": self.retry_wait_ms,
            "queue_ms": self.queue_ms,
            "attempts": self.attempts,
            "level": self.level,
            "ideal_level": self.ideal_level,
            "demoted": self.demoted,
            "events": self.events,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RequestSpan(id={self.request_id}, phase={self.final_phase}, "
            f"events={len(self.events)})"
        )


class RequestTracer:
    """Collects :class:`RequestSpan` objects for sampled requests.

    The simulator consults :meth:`sampled` once per arrival and keeps a
    span only for hits; every later hook takes the request id and is a
    dict lookup + append. Spans move from ``active`` to ``finished`` on
    their terminal phase (``complete`` or ``lost``).
    """

    __slots__ = ("sample_rate", "_threshold", "max_spans", "active",
                 "finished", "dropped")

    def __init__(self, sample_rate: float, max_spans: int = 0):
        if not 0.0 <= sample_rate <= 1.0:
            raise ConfigurationError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        self.sample_rate = sample_rate
        # Compare the 32-bit hash against a fixed-point threshold; rate
        # 1.0 must accept every id, so widen past the mask by one.
        self._threshold = (
            _HASH_MASK + 1 if sample_rate >= 1.0
            else int(sample_rate * (_HASH_MASK + 1))
        )
        self.max_spans = max_spans
        self.active: dict[int, RequestSpan] = {}
        self.finished: list[RequestSpan] = []
        #: Finished spans discarded by the ``max_spans`` cap.
        self.dropped = 0

    @property
    def enabled(self) -> bool:
        return self._threshold > 0

    def sampled(self, request_id: int) -> bool:
        """Deterministic per-request sampling verdict."""
        return ((request_id * _HASH_MULT) & _HASH_MASK) < self._threshold

    # -- life-cycle hooks -------------------------------------------------

    def begin(self, now_ms: float, request_id: int, arrival_ms: float,
              length: int, attempt: int = 0) -> RequestSpan | None:
        """Admission: open (or re-enter, on retry) the request's span.

        Returns the span if the request is sampled, else None — callers
        pass the span to the remaining hooks so re-hashing is avoided.
        """
        if not self.sampled(request_id):
            return None
        span = self.active.get(request_id)
        if span is None:
            span = RequestSpan(request_id, arrival_ms, length)
            self.active[request_id] = span
        span.events.append({
            "phase": "admit", "t_ms": now_ms,
            "length": length, "attempt": attempt,
        })
        return span

    @staticmethod
    def on_probes(span: RequestSpan, now_ms: float,
                  probes: list[tuple[int, float, float, str]]) -> None:
        """Record the Algorithm-1 level walk.

        ``probes`` entries are ``(level, p, threshold, verdict)`` as
        narrated by the candidate walk when ``ArloRequestScheduler.dispatch``
        (or, in the co-located generative loop, ``_walk``) is given a
        probe list.
        """
        events = span.events
        for level, p, threshold, verdict in probes:
            events.append({
                "phase": "probe", "t_ms": now_ms, "level": level,
                "p": p, "threshold": threshold, "verdict": verdict,
            })

    @staticmethod
    def on_dispatch(span: RequestSpan, now_ms: float, *, level: int,
                    ideal_level: int, instance: str,
                    fallback: bool = False) -> None:
        span.level = level
        span.ideal_level = ideal_level
        span.demoted = level > ideal_level >= 0
        span.attempts += 1
        span.events.append({
            "phase": "dispatch", "t_ms": now_ms, "level": level,
            "ideal_level": ideal_level, "demoted": span.demoted,
            "fallback": fallback, "instance": instance,
        })

    @staticmethod
    def on_defer(span: RequestSpan, now_ms: float) -> None:
        span.events.append({"phase": "defer", "t_ms": now_ms})

    @staticmethod
    def on_retry(span: RequestSpan, now_ms: float, attempt: int,
                 delay_ms: float) -> None:
        span.retry_wait_ms += delay_ms
        span.events.append({
            "phase": "retry", "t_ms": now_ms,
            "attempt": attempt, "delay_ms": delay_ms,
        })

    @staticmethod
    def on_first_token(span: RequestSpan, now_ms: float, ttft_ms: float,
                       batch_size: int) -> None:
        """Generative data plane: the request produced its first token."""
        span.events.append({
            "phase": "first_token", "t_ms": now_ms,
            "ttft_ms": ttft_ms, "batch_size": batch_size,
        })

    def on_complete(self, request_id: int, now_ms: float,
                    service_ms: float,
                    decode_steps: int | None = None) -> None:
        span = self.active.pop(request_id, None)
        if span is None:
            return
        span.final_phase = "complete"
        span.latency_ms = now_ms - span.arrival_ms
        span.service_ms = service_ms
        event = {
            "phase": "complete", "t_ms": now_ms,
            "latency_ms": span.latency_ms, "service_ms": service_ms,
        }
        if decode_steps is not None:
            event["decode_steps"] = decode_steps
        span.events.append(event)
        self._finish(span)

    # -- accounting -------------------------------------------------------

    def _finish(self, span: RequestSpan) -> None:
        if self.max_spans and len(self.finished) >= self.max_spans:
            self.dropped += 1
            return
        self.finished.append(span)

    def stats(self) -> dict[str, float]:
        return {
            "sample_rate": self.sample_rate,
            "finished": len(self.finished),
            "open": len(self.active),
            "dropped": self.dropped,
        }
