"""What the runtime puts *under* the simulator's own host.

``repro rt`` has no node class and no timer class of its own: a node is a
:class:`~repro.sim.node.SimNode` and its timeouts are
:class:`~repro.sim.timers.Timer` objects, exactly as in the event engine,
so fail-stop and restart semantics have one owner.  The host reaches its
substrate through two collaborators, and these are the runtime's:

- :class:`WallClockScheduler` stands where a
  :class:`~repro.sim.engine.Simulator` does -- ``now``, ``schedule_in``,
  ``schedule_at``, ``cancel``, ``profiler`` -- with the asyncio loop's
  clock (seconds since the run epoch) and ``call_at`` callbacks;
- :class:`UdpLink`, one per node, stands where a
  :class:`~repro.sim.medium.RadioMedium` does -- ``register``,
  ``transmit``, ``set_receiving``, ``tracer`` -- with a localhost UDP
  socket, the node's own spool, and the supervisor task that is the
  node's "process".  ``set_receiving(node, False)`` is process death:
  :meth:`SimNode.crash` calls it, the task is cancelled and the socket
  closes.  A decoded datagram takes the medium's receive path: the
  link counts it, emits ``radio.rx`` and calls the node's receive table
  for the payload's type, all in :meth:`UdpLink.datagram_received`.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from repro.obs.profiler import NULL_PROFILER
from repro.rt.codec import CodecError, decode_frame, encode_frame
from repro.sim.medium import ReceiveTable, draw_delays
from repro.sim.trace import LOSS_KEYS, RX_KEYS, TX_KEYS, Tracer
from repro.types import NodeId
from repro.util.geometry import Vec2

#: Trace kind emitted when an undecodable datagram is dropped.
CODEC_ERROR_KIND = "rt.codec_error"


class WallEvent:
    """A scheduled callback: the ``time`` / ``active`` face of
    :class:`repro.sim.events.Event` over a loop timer handle."""

    __slots__ = ("time", "handle")

    def __init__(self, time: float, handle: asyncio.TimerHandle) -> None:
        self.time = time
        self.handle = handle

    @property
    def active(self) -> bool:
        return not self.handle.cancelled()


class WallClockScheduler:
    """The asyncio loop behind the scheduling face of a ``Simulator``.

    Times are wall seconds since the epoch taken at construction.  A time
    already past fires on the next loop pass (a late wall clock is a
    fact, not a scheduling error).
    """

    #: Wall-clock runs are timer-bound; phases are not profiled.
    profiler = NULL_PROFILER

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        self._epoch = loop.time()

    @property
    def now(self) -> float:
        """Wall seconds since the run epoch."""
        return self.loop.time() - self._epoch

    def schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> WallEvent:
        return WallEvent(time, self.loop.call_at(self._epoch + time, callback))

    def schedule_in(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> WallEvent:
        return self.schedule_at(self.now + delay, callback)

    def cancel(self, event: WallEvent) -> None:
        """Cancel a scheduled callback; idempotent."""
        event.handle.cancel()


class UdpLink(asyncio.DatagramProtocol):
    """One node's radio: a UDP socket behind the medium face.

    ``net`` is the run's shared ether (the
    :class:`~repro.rt.runtime.RtRuntime`): the clock, the unit-disk
    graph, the seeded loss model and delay stream, every node's link,
    and the run's loss / codec-error counters.
    """

    def __init__(self, net, tracer: Tracer) -> None:
        self.tracer = tracer
        self._net = net
        self._table: ReceiveTable = {}
        self._receiving = False
        self.node_id: Optional[NodeId] = None
        #: Datagrams decoded and handed to the node (the medium's
        #: ``deliveries``): none after the crash.
        self.deliveries = 0
        self.transport: Optional[asyncio.DatagramTransport] = None
        self.address: Optional[tuple] = None
        #: The node's "process": alive until shutdown or crash-cancel.
        self.task: Optional[asyncio.Task] = None

    async def open(self, until: asyncio.Event) -> None:
        """Bind the socket and start the supervisor task."""
        loop = asyncio.get_running_loop()
        self.transport, _ = await loop.create_datagram_endpoint(
            lambda: self, local_addr=("127.0.0.1", 0)
        )
        self.address = self.transport.get_extra_info("sockname")
        self.task = loop.create_task(until.wait())

    def close(self) -> None:
        """Kill the task and close the socket; idempotent."""
        self.task.cancel()
        self.transport.close()

    # ------------------------------------------------------------------
    # The medium face (what SimNode calls)
    # ------------------------------------------------------------------
    def register(
        self, node_id: NodeId, position: Vec2, table: ReceiveTable
    ) -> None:
        self.node_id = node_id
        self._table = table
        self._receiving = True

    def set_receiving(self, node_id: NodeId, receiving: bool) -> None:
        """Fail-stop (the only caller is ``SimNode.crash``, with False)."""
        assert not receiving, "a real socket does not come back"
        self._receiving = False
        self.close()

    def transmit(
        self, sender: NodeId, payload: object, recipient: Optional[NodeId]
    ) -> int:
        """Broadcast emulation: one delayed unicast datagram per in-range
        neighbor that survives the seeded loss draw."""
        net = self._net
        now = net.scheduler.now
        frame = encode_frame(sender, recipient, now, payload)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                now,
                "radio.tx",
                int(sender),
                TX_KEYS,
                None if recipient is None else int(recipient),
            )
        call_later = net.scheduler.loop.call_later
        sent = 0
        for neighbor in net.graph.neighbors(sender):
            distance = net.graph.distance(sender, neighbor)
            if net.loss_model.is_lost(
                sender, neighbor, distance, now, net.loss_rng
            ):
                net.losses += 1
                if tracer.enabled:
                    tracer.emit(
                        now, "radio.loss", int(neighbor), LOSS_KEYS, int(sender)
                    )
                continue
            delay = float(draw_delays(net.delay_rng, net.max_delay, 1)[0])
            call_later(delay, self._sendto, frame, net.links[neighbor])
            sent += 1
        return sent

    def _sendto(self, frame: bytes, peer: "UdpLink") -> None:
        if self.transport.is_closing():
            return  # the sender crashed while the copy was in flight
        self.transport.sendto(frame, peer.address)

    # ------------------------------------------------------------------
    # asyncio.DatagramProtocol: decode, trace, deliver -- and never die
    # ------------------------------------------------------------------
    def datagram_received(self, data: bytes, addr) -> None:
        # A crashed node drops what the loop had already read for it.
        if not self._receiving:
            return
        net = self._net
        now = net.scheduler.now
        tracer = self.tracer
        try:
            frame = decode_frame(data)
        except CodecError as exc:
            net.codec_errors += 1
            if tracer.enabled:
                tracer.record(
                    now,
                    CODEC_ERROR_KIND,
                    node=int(self.node_id),
                    error=str(exc),
                )
            return
        self.deliveries += 1
        if tracer.enabled:
            tracer.emit(
                now,
                "radio.rx",
                int(self.node_id),
                RX_KEYS,
                int(frame.sender),
                frame.recipient is not None and frame.recipient != self.node_id,
                now - frame.sent_at,
            )
        payload = frame.payload
        try:
            handler = self._table[type(payload)]
        except KeyError:
            return  # no protocol of the node takes this payload type
        handler(payload)

    def error_received(self, exc) -> None:  # pragma: no cover - platform
        # ICMP errors from a crashed peer's closed port are expected noise.
        pass
