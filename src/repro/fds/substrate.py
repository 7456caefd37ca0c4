"""The host surface the FDS protocol family runs against.

The protocol code (:class:`~repro.fds.service.FdsProtocol` and its
sub-components) never talks to the discrete-event simulator directly:
everything it needs from its host funnels through the small surface
formalized here -- transmit a payload, schedule a restartable timeout,
read a monotonic clock, and emit trace records.  One host class
implements it, :class:`~repro.sim.node.SimNode` with its
:class:`~repro.sim.timers.TimerService`: the fail-stop gate on send, the
``sim.crash`` record and the restartable timer exist once.
The seam between substrates is *below* the host, in the two
collaborators a ``SimNode`` is built with:

- ``sim`` -- who schedules a callback (``now``, ``schedule_in``,
  ``schedule_at``, ``cancel``, ``profiler``): the discrete-event
  :class:`~repro.sim.engine.Simulator` (virtual time, heap events) or
  the runtime's :class:`~repro.rt.substrate.WallClockScheduler` (wall
  seconds since the run epoch, asyncio ``call_at`` callbacks);
- ``medium`` -- who carries a message (``register``, ``transmit``,
  ``set_receiving``, ``tracer``): the modeled
  :class:`~repro.sim.medium.RadioMedium` or the node's
  :class:`~repro.rt.substrate.UdpLink` (length-prefixed JSON datagrams
  between localhost UDP sockets).  ``register(node_id, position,
  table)`` takes the node's receive table, ``{payload type:
  handler(payload)}`` (the merge of its protocols'
  :meth:`~repro.sim.node.Protocol.handlers`); the medium calls
  ``table[type(payload)]`` for each copy it delivers while the node is
  receiving, and ``set_receiving(node_id, False)`` -- the crash --
  stops that at once, copies in flight included.

Because the same protocol objects run on the same host over both
substrates, a simulated scenario and a real-socket scenario of the same
spec are *differentially comparable* (see :mod:`repro.audit.realnet`) --
the conformance story behind the ``repro rt`` commands.

The interfaces below are :class:`typing.Protocol` classes (structural):
they state the whole of what the protocol code may ask of its host, and
a host -- ``SimNode``, or a stand-in a test builds -- satisfies them by
shape, not by inheritance.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, runtime_checkable

from repro.sim.trace import Tracer
from repro.types import NodeId, SimTime


@runtime_checkable
class TimerHandle(Protocol):
    """A one-shot, restartable timeout (the shape of
    :class:`~repro.sim.timers.Timer`)."""

    @property
    def armed(self) -> bool:
        """Whether the timer is currently counting down."""
        ...

    def start(self, delay: SimTime) -> None:
        """(Re)arm the timer ``delay`` substrate-seconds from now."""
        ...

    def stop(self) -> None:
        """Disarm without firing; idempotent."""
        ...


@runtime_checkable
class TimerScheduler(Protocol):
    """A factory of :class:`TimerHandle` objects owned by one node.

    Crash semantics live here: fail-stop requires that crashing a node
    disarms every outstanding timeout in one :meth:`stop_all` call.
    """

    def create(
        self, callback: Callable[[], None], label: str = ""
    ) -> TimerHandle:
        ...

    def after(
        self, delay: SimTime, callback: Callable[[], None], label: str = ""
    ) -> TimerHandle:
        ...

    def stop_all(self) -> None:
        ...


@runtime_checkable
class Substrate(Protocol):
    """What a host must provide for the FDS protocol family to run.

    ``now`` is a monotonic clock in the substrate's own time base
    (virtual seconds for the simulator, wall-clock seconds since the run
    epoch for the runtime); all protocol timing constants
    (:class:`~repro.fds.config.FdsConfig`) are interpreted in that same
    base, so a runtime config simply carries wall-scaled ``phi``/``thop``.
    """

    node_id: NodeId

    @property
    def now(self) -> SimTime:
        """The substrate's monotonic clock."""
        ...

    @property
    def timers(self) -> TimerScheduler:
        """This node's timer service (disarmed wholesale on crash)."""
        ...

    @property
    def tracer(self) -> Tracer:
        """Where this node's trace records go."""
        ...

    @property
    def profiler(self):
        """The phase profiler charged by protocol hot paths
        (:data:`~repro.obs.profiler.NULL_PROFILER` when disabled)."""
        ...

    def send(self, payload: object, recipient: Optional[NodeId] = None) -> int:
        """Transmit ``payload`` (``recipient=None`` broadcasts).

        A crashed host silently sends nothing (fail-stop), returning 0.
        """
        ...
