"""Discrete-event simulation substrate.

The paper assumes round-based protocol execution with a per-hop delivery
bound ``Thop`` over an ad hoc wireless network with unreliable links.  This
package provides the substrate: a deterministic event engine, a unit-disk
radio medium with promiscuous (overheard) delivery and pluggable loss
models, and a node runtime with fail-stop crashes.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue
from repro.sim.loss import (
    BernoulliLoss,
    BoundedAdversaryLoss,
    DistanceDependentLoss,
    GilbertElliottLoss,
    LossModel,
    PerfectLinks,
    build_loss_model,
)
from repro.sim.medium import Envelope, RadioMedium
from repro.sim.network import Network, NetworkConfig, build_network
from repro.sim.node import Protocol, SimNode
from repro.sim.timers import Timer, TimerService
from repro.sim.trace import NullTracer, RecordingTracer, TraceRecord, Tracer

__all__ = [
    "Simulator",
    "Event",
    "EventQueue",
    "LossModel",
    "BernoulliLoss",
    "BoundedAdversaryLoss",
    "build_loss_model",
    "GilbertElliottLoss",
    "DistanceDependentLoss",
    "PerfectLinks",
    "RadioMedium",
    "Envelope",
    "Network",
    "NetworkConfig",
    "build_network",
    "SimNode",
    "Protocol",
    "Timer",
    "TimerService",
    "Tracer",
    "NullTracer",
    "RecordingTracer",
    "TraceRecord",
]
