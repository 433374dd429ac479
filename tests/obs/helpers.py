"""Span checks shared by the discriminative and generative tracing tests."""

from __future__ import annotations


def assert_walk_narrated(span) -> int:
    """Each ``dispatch`` event of an Arlo span follows the ``probe``
    narration of the Algorithm 1 walk that chose it: the last probe
    accepted the dispatched level, or, on a fallback, every evaluated
    head was rejected and the first one took the request.

    Returns the number of probe events in the span.
    """
    probes: list[dict] = []
    count = 0
    for event in span.events:
        phase = event["phase"]
        if phase == "probe":
            probes.append(event)
            count += 1
        elif phase == "dispatch":
            evaluated = [p for p in probes if p["verdict"] != "gated"]
            assert evaluated, span.events
            if event["fallback"]:
                assert all(p["verdict"] == "rejected" for p in evaluated)
                assert event["level"] == evaluated[0]["level"]
            else:
                assert probes[-1]["verdict"] == "accepted"
                assert probes[-1]["level"] == event["level"]
            probes = []
        elif phase in ("admit", "defer"):
            probes = []
    return count
