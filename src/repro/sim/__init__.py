"""Discrete-event cluster simulator (the paper's §4 simulator, ~2k LoC).

Models, "with great care" as the paper puts it: request arrival and
dispatch, per-instance FIFO execution at batch size 1, periodic
resource allocation with batched instance replacement (~1 s per swap),
target-tracking auto-scaling, and the fixed 0.8 ms per-request
overhead used for calibration (§5.2.1).

Entry point: :func:`repro.sim.simulation.run_simulation`. It runs the
discriminative loop itself and hands generative runs (co-located or on
disaggregated pools) to :mod:`repro.sim.generative`; both loops share
the cold-path kernel in :mod:`repro.sim.kernel`.
"""

from repro.sim.engine import EventQueue
from repro.sim.events import EventKind
from repro.sim.faults import (
    BlackoutEvent,
    FailureEvent,
    FailurePlan,
    FaultPlan,
    SlowdownEvent,
    SolverFaultEvent,
)
from repro.sim.generative import GenerativeConfig
from repro.sim.metrics import LatencyStats, MetricsCollector
from repro.sim.replay import replay_trace
from repro.sim.simulation import SimulationConfig, SimulationResult, run_simulation

__all__ = [
    "BlackoutEvent",
    "EventKind",
    "EventQueue",
    "FailureEvent",
    "FailurePlan",
    "FaultPlan",
    "GenerativeConfig",
    "LatencyStats",
    "MetricsCollector",
    "SimulationConfig",
    "SimulationResult",
    "SlowdownEvent",
    "SolverFaultEvent",
    "replay_trace",
    "run_simulation",
]
