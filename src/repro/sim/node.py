"""Node runtime: a fail-stop host with a stack of protocol handlers.

The paper assumes a fail-stop model (Section 2.2): a crashed node halts --
it neither transmits nor receives, and it never recovers by itself.
:meth:`SimNode.crash` enforces exactly that: the receiver is muted, every
outstanding timer is disarmed, and subsequent send attempts are dropped.

Protocols (cluster formation, the FDS) are attached as
:class:`Protocol` instances.  Each declares its receive table once, at
attach -- ``{payload type: handler(payload)}`` -- and the node merges
the tables (protocols handle disjoint types) into the one table it
registered with its medium.  The medium's delivery callback calls the
handler straight from that table (see :mod:`repro.sim.medium`, "Hot-path
design"), so a delivered copy passes no node frame and no type chain.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError, NodeStateError
from repro.sim.engine import Simulator
from repro.sim.medium import RadioMedium, ReceiveTable
from repro.sim.timers import TimerService
from repro.types import NodeId, NodeStatus
from repro.util.geometry import Vec2


def ignore(payload: object) -> None:
    """The handler of a payload type a protocol takes and has no use for
    (in this configuration): the copy is received, then dropped."""


class Protocol:
    """Base class for per-node protocol handlers.

    Subclasses override :meth:`handlers` (and optionally
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

    def handlers(self) -> ReceiveTable:
        """The receive table, read once when the protocol is attached:
        each payload type this protocol takes, mapped to the handler a
        delivered (possibly overheard) copy is passed to."""
        return {}

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
        #: The merged receive table of :attr:`protocols`; the medium holds
        #: this very dict, so a protocol added later is heard at once.
        self.table: Dict[type, Callable[[object], None]] = {}
        medium.register(node_id, position, self.table)

    # ------------------------------------------------------------------
    # Protocol stack
    # ------------------------------------------------------------------
    def add_protocol(self, protocol: Protocol) -> None:
        """Install a protocol; it starts receiving immediately."""
        protocol.attach(self)
        table = protocol.handlers()
        taken = sorted(kind.__name__ for kind in table.keys() & self.table.keys())
        if taken:
            raise ConfigurationError(
                f"node {self.node_id}: protocol {protocol.name!r} handles "
                f"payload types another protocol already handles: {taken}"
            )
        self.table.update(table)
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
