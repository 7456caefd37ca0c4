"""Node runtime: a fail-stop host with a stack of protocol handlers.

The paper assumes a fail-stop model (Section 2.2): a crashed node halts --
it neither transmits nor receives, and it never recovers by itself.
:meth:`SimNode.crash` enforces exactly that: the receiver is muted, every
outstanding timer is disarmed, and subsequent send attempts are dropped.

Protocols (cluster formation, the FDS) are attached as
:class:`Protocol` instances; each receives delivered envelopes in
attachment order.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import NodeStateError
from repro.sim.engine import Simulator
from repro.sim.medium import Envelope, RadioMedium
from repro.sim.timers import TimerService
from repro.types import NodeId, NodeStatus
from repro.util.geometry import Vec2


class Protocol:
    """Base class for per-node protocol handlers.

    Subclasses override :meth:`on_receive` (and optionally
    :meth:`on_crash`).  A protocol sends through its node, never through the
    medium directly, so crash semantics apply uniformly.
    """

    #: Short name used in traces and diagnostics.
    name = "protocol"

    def __init__(self) -> None:
        self.node: Optional["SimNode"] = None

    def attach(self, node: "SimNode") -> None:
        """Called by the node when the protocol is installed."""
        self.node = node

    def on_receive(self, envelope: Envelope) -> None:
        """Handle a delivered (possibly overheard) message copy."""

    def on_crash(self) -> None:
        """Called once when the owning node crashes."""


class SimNode:
    """A simulated host.

    Attributes
    ----------
    node_id:
        The globally unique NID.
    position:
        Location in the plane (meters).
    status:
        Ground-truth liveness; protocols must not read this -- it exists
        for the metrics layer and failure injection.
    """

    def __init__(
        self,
        node_id: NodeId,
        position: Vec2,
        sim: Simulator,
        medium: RadioMedium,
    ) -> None:
        self.node_id = node_id
        self.position = position
        self.sim = sim
        self.medium = medium
        self.status = NodeStatus.ALIVE
        self.timers = TimerService(sim)
        self.protocols: List[Protocol] = []
        self.sent_count = 0
        self.received_count = 0
        medium.register(node_id, position, self._on_envelope)

    # ------------------------------------------------------------------
    # Protocol stack
    # ------------------------------------------------------------------
    def add_protocol(self, protocol: Protocol) -> None:
        """Install a protocol; it starts receiving immediately."""
        protocol.attach(self)
        self.protocols.append(protocol)

    # ------------------------------------------------------------------
    # Substrate surface (see :mod:`repro.fds.substrate`)
    # ------------------------------------------------------------------
    @property
    def now(self):
        """The substrate clock: virtual simulated seconds."""
        return self.sim.now

    @property
    def tracer(self):
        """Where this node's trace records go (the medium's tracer)."""
        return self.medium.tracer

    @property
    def profiler(self):
        """The simulator's phase profiler."""
        return self.sim.profiler

    def get_protocol(self, protocol_type: type) -> Protocol:
        """The first installed protocol of the given type.

        Raises :class:`NodeStateError` if absent.
        """
        for protocol in self.protocols:
            if isinstance(protocol, protocol_type):
                return protocol
        raise NodeStateError(
            f"node {self.node_id} has no protocol of type {protocol_type.__name__}"
        )

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def send(self, payload: object, recipient: Optional[NodeId] = None) -> int:
        """Transmit ``payload`` (``recipient=None`` broadcasts).

        A crashed node silently sends nothing (fail-stop), returning 0.
        """
        if self.status is not NodeStatus.ALIVE:
            return 0
        self.sent_count += 1
        return self.medium.transmit(self.node_id, payload, recipient)

    def _on_envelope(self, envelope: Envelope) -> None:
        if self.status is not NodeStatus.ALIVE:
            return
        self.received_count += 1
        for protocol in self.protocols:
            protocol.on_receive(envelope)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: fall permanently silent.

        Idempotent is *not* desired here -- crashing twice indicates a bug
        in the failure injector, so the second call raises.
        """
        if self.status is NodeStatus.CRASHED:
            raise NodeStateError(f"node {self.node_id} is already crashed")
        self.status = NodeStatus.CRASHED
        # Ground-truth marker for post-hoc analysis: a spooled trace can
        # compute crash-to-detection latency without the live network.
        if self.medium.tracer.enabled:
            self.medium.tracer.record(
                self.sim.now, "sim.crash", node=int(self.node_id)
            )
        self.medium.set_receiving(self.node_id, False)
        self.timers.stop_all()
        for protocol in self.protocols:
            protocol.on_crash()

    @property
    def is_operational(self) -> bool:
        """Ground truth liveness (metrics only)."""
        return self.status is NodeStatus.ALIVE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimNode {self.node_id} at ({self.position.x:.1f}, "
            f"{self.position.y:.1f}) {self.status.value}>"
        )
