"""The runtime's implementation of the FDS substrate surface.

:class:`RtNode` is to the asyncio runtime what
:class:`~repro.sim.node.SimNode` is to the discrete-event simulator: a
fail-stop host that owns a timer service and a protocol stack.  The
clock is the wall clock (seconds since the run epoch), timers are
``loop.call_later`` callbacks, and a send fans out through the runtime's
UDP link layer.  Fail-stop semantics mirror the simulator exactly: a
crashed node stops sending, stops receiving, and every outstanding timer
is disarmed in one call.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from repro.errors import NodeStateError, SchedulingError
from repro.sim.medium import Envelope
from repro.sim.node import Protocol
from repro.types import NodeId, NodeStatus
from repro.util.geometry import Vec2


class RtTimer:
    """A one-shot, restartable timeout backed by ``loop.call_later``."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        callback,
        label: str = "",
        armed_registry: Optional[Dict["RtTimer", None]] = None,
    ) -> None:
        self._loop = loop
        self._callback = callback
        self._label = label
        #: The owning service's armed set (a private one for a timer made
        #: without a service): this timer is a key exactly while it is
        #: counting down.
        self._armed_registry = armed_registry if armed_registry is not None else {}
        self._handle: Optional[asyncio.TimerHandle] = None
        self._fired_count = 0

    @property
    def armed(self) -> bool:
        """Whether the timer is currently counting down."""
        return self._handle is not None

    @property
    def fired_count(self) -> int:
        return self._fired_count

    def start(self, delay: float) -> None:
        """(Re)arm the timer ``delay`` wall-seconds from now."""
        if delay < 0:
            raise SchedulingError(f"timer delay must be >= 0, got {delay}")
        self.stop()
        self._handle = self._loop.call_later(delay, self._expire)
        self._armed_registry[self] = None

    def stop(self) -> None:
        """Disarm without firing; idempotent."""
        if self._handle is not None:
            self._handle.cancel()
            self._disarmed()

    def _disarmed(self) -> None:
        self._handle = None
        self._armed_registry.pop(self, None)

    def _expire(self) -> None:
        self._disarmed()
        self._fired_count += 1
        self._callback()


class RtTimerService:
    """A factory that tracks its armed timers (crash = stop_all).

    Like :class:`repro.sim.timers.TimerService`, a timer is tracked only
    while it counts down, so a long ``repro rt`` run does not accumulate
    its fired one-shots.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._armed: Dict[RtTimer, None] = {}

    def create(self, callback, label: str = "") -> RtTimer:
        return RtTimer(
            self._loop, callback, label=label, armed_registry=self._armed
        )

    def after(self, delay: float, callback, label: str = "") -> RtTimer:
        timer = self.create(callback, label=label)
        timer.start(delay)
        return timer

    def stop_all(self) -> None:
        for timer in list(self._armed):
            timer.stop()

    @property
    def armed_count(self) -> int:
        return len(self._armed)


class RtNode:
    """A real host: one UDP socket, wall-clock timers, a protocol stack.

    The runtime wires ``_link`` (its transmit fan-out), ``_clock`` (wall
    seconds since the run epoch), ``_tracer`` (this node's spool) and
    ``_profiler`` before any protocol attaches; the node itself only
    enforces fail-stop semantics and dispatches deliveries.
    """

    def __init__(
        self,
        node_id: NodeId,
        position: Vec2,
        loop: asyncio.AbstractEventLoop,
        link,
        clock,
        tracer,
        profiler,
    ) -> None:
        self.node_id = node_id
        self.position = position
        self.status = NodeStatus.ALIVE
        self.timers = RtTimerService(loop)
        self.protocols: List[Protocol] = []
        self.sent_count = 0
        self.received_count = 0
        self._link = link
        self._clock = clock
        self._tracer = tracer
        self._profiler = profiler

    # ------------------------------------------------------------------
    # Protocol stack (mirrors SimNode)
    # ------------------------------------------------------------------
    def add_protocol(self, protocol: Protocol) -> None:
        protocol.attach(self)
        self.protocols.append(protocol)

    def get_protocol(self, protocol_type: type) -> Protocol:
        for protocol in self.protocols:
            if isinstance(protocol, protocol_type):
                return protocol
        raise NodeStateError(
            f"node {self.node_id} has no protocol of type {protocol_type.__name__}"
        )

    # ------------------------------------------------------------------
    # Substrate surface (see :mod:`repro.fds.substrate`)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Wall-clock seconds since the run epoch."""
        return self._clock()

    @property
    def tracer(self):
        return self._tracer

    @property
    def profiler(self):
        return self._profiler

    def send(self, payload: object, recipient: Optional[NodeId] = None) -> int:
        """Transmit over UDP (``recipient=None`` emulates a broadcast).

        A crashed node silently sends nothing (fail-stop), returning 0.
        """
        if self.status is not NodeStatus.ALIVE:
            return 0
        self.sent_count += 1
        return self._link.transmit(self.node_id, payload, recipient)

    # ------------------------------------------------------------------
    # Delivery and failure injection
    # ------------------------------------------------------------------
    def deliver(self, envelope: Envelope) -> None:
        """Hand one decoded datagram to the protocol stack."""
        if self.status is not NodeStatus.ALIVE:
            return
        self.received_count += 1
        for protocol in self.protocols:
            protocol.on_receive(envelope)

    def crash(self) -> None:
        """Fail-stop: fall permanently silent (same contract as SimNode)."""
        if self.status is NodeStatus.CRASHED:
            raise NodeStateError(f"node {self.node_id} is already crashed")
        self.status = NodeStatus.CRASHED
        if self._tracer.enabled:
            self._tracer.record(self.now, "sim.crash", node=int(self.node_id))
        self.timers.stop_all()
        for protocol in self.protocols:
            protocol.on_crash()

    @property
    def is_operational(self) -> bool:
        """Ground truth liveness (metrics only)."""
        return self.status is NodeStatus.ALIVE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RtNode {self.node_id} {self.status.value}>"
