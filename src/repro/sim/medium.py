"""The shared wireless medium: unit-disk propagation with promiscuous receive.

Semantics follow Section 2.3 of the paper:

- all hosts share one transmission range ``R`` (symmetric links);
- a transmission by ``v`` is *heard by every one-hop neighbor of v*
  regardless of the intended recipient (promiscuous receiving mode), so a
  "send" and a "broadcast" differ only in the message's ``recipient`` field;
- each copy is lost independently according to the installed
  :class:`~repro.sim.loss.LossModel` (probability ``p`` in the paper);
- a delivered copy arrives within the per-hop bound ``Thop`` (we draw the
  delay uniformly from the half-open interval ``(0, max_delay]`` so all
  round-based deadlines in the protocol hold, matching the paper's timing
  assumption 2 in Section 2.2).

The medium also maintains the neighbor structure, read off
:func:`~repro.topology.graph.build_unit_disk_edges` (the one range test)
on the first lookup after a register/unregister, and exposes it
read-only to protocols *only* through what they can hear -- protocol
code never peeks at ground truth.

Hot-path design
---------------
``transmit`` is the single hottest function in any full-stack run: every
heartbeat, digest, and gossip fans out over it, and each is heard by
~30 neighbours.  It works on whole arrays from the draw to the schedule:

- the loss outcome for every in-range receiver comes from one batched
  RNG call (:meth:`LossModel.lost_mask`) and all delivery delays from a
  second, against per-sender cached ``(neighbors, distances)`` arrays
  plus the neighbours as an int64 id array (all invalidated together
  with the neighbor cache on any topology change);
- the surviving copies go to the simulator as *one batch*
  (:meth:`Simulator.schedule_batch`): the ``received_at`` array, the
  surviving receiver ids, and one callback closed over the shared
  ``(sender, recipient, payload, sent_at)`` record.  Nothing is
  allocated per copy at transmission time -- no heap event, no
  callable, no envelope (see :mod:`repro.sim.events`, "delivery lane").

The :class:`Envelope` is built when the copy *arrives*
(:meth:`RadioMedium._deliver_copy`), with ``received_at`` read off the
clock, and handed to the receiver or dropped against the medium's state
at that instant -- a receiver that crashed, was muted or left the field
while the copy was in flight hears nothing, exactly as when every copy
was its own event.  Building it late is what keeps ~8 000 in-flight
copies per round from existing as long-lived container objects that the
cycle collector has to walk.

The draw schedule is canonical -- all loss draws in ascending receiver
order, then all delay draws for the surviving receivers -- batched
NumPy doubles consume the bit stream exactly like sequential scalar
draws, and a batch takes the sequence numbers its copies would have
taken one by one.  So the per-receiver reference loop the tests keep
(``tests/scalar_medium.py``, overriding :meth:`RadioMedium._fan_out`
with one ``schedule_at`` and one eager envelope per copy) replays any
seeded run bit for bit.
"""

from __future__ import annotations

from functools import partial
from itertools import compress
from time import perf_counter
from typing import Callable, Dict, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.errors import MediumError
from repro.obs.profiler import PHASE_RADIO_DELIVER, PHASE_RADIO_TRANSMIT
from repro.sim.engine import Simulator
from repro.sim.loss import LossModel, PerfectLinks
from repro.sim.trace import LOSS_KEYS, RX_KEYS, TX_KEYS, NullTracer, Tracer
from repro.topology.graph import unit_disk_neighbors
from repro.types import NodeId, SimTime
from repro.util.geometry import Vec2
from repro.util.validation import check_positive, check_range


class Envelope(NamedTuple):
    """A delivered copy of a transmission, as seen by one receiver.

    ``overheard`` is ``True`` when the receiver was not the intended
    recipient -- the paper's "inherent message redundancy" that digests
    exploit.  ``recipient is None`` means an intentional broadcast, in which
    case no copy is marked overheard.

    A ``NamedTuple`` rather than a dataclass: one envelope is allocated
    per delivered copy, so construction sits on the radio hot path.
    """

    sender: NodeId
    recipient: Optional[NodeId]
    payload: object
    sent_at: SimTime
    received_at: SimTime
    overheard: bool


DeliveryHandler = Callable[[Envelope], None]


def draw_delays(
    rng: np.random.Generator, max_delay: float, size: int
) -> np.ndarray:
    """``size`` delivery delays, uniform on the half-open ``(0, max_delay]``.

    ``rng.random()`` is uniform on ``[0, 1)``, so ``max_delay * (1 - u)``
    lands exactly in ``(0, max_delay]`` -- no zero-delay remapping hack
    needed, and the per-hop bound is met with equality only when the
    underlying draw is exactly 0.  A batch of ``size`` doubles consumes the
    generator identically to ``size`` scalar draws.
    """
    return max_delay * (1.0 - rng.random(size))


class RadioMedium:
    """The single shared broadcast channel of the simulated network."""

    def __init__(
        self,
        sim: Simulator,
        transmission_range: float,
        loss_model: Optional[LossModel] = None,
        rng: Optional[np.random.Generator] = None,
        max_delay: float = 0.1,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.transmission_range = check_positive(
            "transmission_range", transmission_range
        )
        self.loss_model = loss_model if loss_model is not None else PerfectLinks()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        #: Upper bound on one-hop delivery delay (the paper's ``Thop`` is a
        #: protocol round duration chosen >= this bound).
        self.max_delay = check_positive("max_delay", max_delay)
        self.tracer = tracer if tracer is not None else NullTracer()

        self._positions: Dict[NodeId, Vec2] = {}
        self._handlers: Dict[NodeId, DeliveryHandler] = {}
        self._receiving: Dict[NodeId, bool] = {}
        #: Nodes currently muted; empty set enables the no-filter fast path.
        self._muted: Set[NodeId] = set()
        self._neighbor_cache: Optional[Dict[NodeId, Tuple[NodeId, ...]]] = None
        #: Per-sender ``((neighbors, distances), neighbor_ids)``: the public
        #: pair of :meth:`neighbor_arrays` plus the neighbors as an int64
        #: array, the form the delivery lane takes receivers in.
        #: Invalidated with ``_neighbor_cache`` on every topology change.
        self._array_cache: Dict[
            NodeId,
            Tuple[Tuple[Tuple[NodeId, ...], np.ndarray], np.ndarray],
        ] = {}
        # Counters for metrics.
        self.transmissions = 0
        self.deliveries = 0
        self.losses = 0

    # ------------------------------------------------------------------
    # Registration and topology
    # ------------------------------------------------------------------
    def register(
        self, node_id: NodeId, position: Vec2, handler: DeliveryHandler
    ) -> None:
        """Attach a node at ``position``; ``handler`` receives envelopes."""
        if node_id in self._positions:
            raise MediumError(f"node {node_id} is already registered")
        self._positions[node_id] = position
        self._handlers[node_id] = handler
        self._receiving[node_id] = True
        self._invalidate_topology()

    def unregister(self, node_id: NodeId) -> None:
        """Detach a node entirely (e.g. permanent removal from the field)."""
        if self._positions.pop(node_id, None) is None:
            raise MediumError(f"node {node_id} is not registered")
        del self._handlers[node_id]
        del self._receiving[node_id]
        self._muted.discard(node_id)
        self._invalidate_topology()

    def set_receiving(self, node_id: NodeId, receiving: bool) -> None:
        """Mute/unmute a node's receiver (crashed nodes hear nothing)."""
        if node_id not in self._receiving:
            raise MediumError(f"node {node_id} is not registered")
        self._receiving[node_id] = receiving
        if receiving:
            self._muted.discard(node_id)
        else:
            self._muted.add(node_id)

    def position_of(self, node_id: NodeId) -> Vec2:
        """Ground-truth position (for metrics/tests, not protocol logic)."""
        try:
            return self._positions[node_id]
        except KeyError:
            raise MediumError(f"node {node_id} is not registered") from None

    def node_ids(self) -> Tuple[NodeId, ...]:
        """All registered node ids, sorted for determinism."""
        return tuple(sorted(self._positions))

    def neighbors_of(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """One-hop neighbors of a node (ground truth, cached, sorted)."""
        if self._neighbor_cache is None:
            self._neighbor_cache = unit_disk_neighbors(
                self._positions, self.transmission_range
            )
        try:
            return self._neighbor_cache[node_id]
        except KeyError:
            raise MediumError(f"node {node_id} is not registered") from None

    def neighbor_arrays(
        self, node_id: NodeId
    ) -> Tuple[Tuple[NodeId, ...], np.ndarray]:
        """Cached ``(neighbors, distances)`` for a sender, id-aligned.

        ``distances[i]`` is the ground-truth distance to ``neighbors[i]``;
        the pair is built lazily per sender and dropped whenever the
        topology changes (register / unregister).
        """
        return self._sender_arrays(node_id)[0]

    def _sender_arrays(
        self, node_id: NodeId
    ) -> Tuple[Tuple[Tuple[NodeId, ...], np.ndarray], np.ndarray]:
        entry = self._array_cache.get(node_id)
        if entry is None:
            neighbors = self.neighbors_of(node_id)
            position = self._positions[node_id]
            distances = np.fromiter(
                (
                    position.distance_to(self._positions[other])
                    for other in neighbors
                ),
                dtype=np.float64,
                count=len(neighbors),
            )
            entry = (
                (neighbors, distances),
                np.array(neighbors, dtype=np.int64),
            )
            self._array_cache[node_id] = entry
        return entry

    def distance(self, a: NodeId, b: NodeId) -> float:
        """Ground-truth distance between two registered nodes."""
        return self.position_of(a).distance_to(self.position_of(b))

    def _invalidate_topology(self) -> None:
        """Drop every structure derived from positions, atomically."""
        self._neighbor_cache = None
        self._array_cache.clear()

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(
        self,
        sender: NodeId,
        payload: object,
        recipient: Optional[NodeId] = None,
    ) -> int:
        """Send ``payload``; every in-range node may hear it.

        ``recipient=None`` is an intentional broadcast.  Returns the number
        of copies scheduled for delivery (after loss), which metrics use as
        the delivery fan-out.
        """
        if sender not in self._positions:
            raise MediumError(f"sender {sender} is not registered")
        if recipient is not None and recipient not in self._positions:
            raise MediumError(f"recipient {recipient} is not registered")
        profiler = self.sim.profiler
        if not profiler.enabled:
            return self._fan_out(sender, payload, recipient)
        t0 = perf_counter()
        try:
            return self._fan_out(sender, payload, recipient)
        finally:
            profiler.add(PHASE_RADIO_TRANSMIT, t0)

    def _fan_out(
        self,
        sender: NodeId,
        payload: object,
        recipient: Optional[NodeId],
    ) -> int:
        """The batched-RNG fan-out (see module doc, "Hot-path design")."""
        now = self.sim.now
        self.transmissions += 1
        tracer = self.tracer
        tracing = tracer.enabled
        if tracing:
            tracer.row(now, "radio.tx", int(sender), TX_KEYS, recipient)

        (neighbors, distances), receivers = self._sender_arrays(sender)
        if not neighbors:
            return 0
        muted = self._muted
        if muted and not muted.isdisjoint(neighbors):
            hearing = [r not in muted for r in neighbors]
            eligible: Tuple[NodeId, ...] = tuple(compress(neighbors, hearing))
            if not eligible:
                return 0
            distances = distances[hearing]
            receivers = receivers[hearing]
        else:
            eligible = neighbors

        lost = self.loss_model.lost_mask(
            sender, eligible, distances, now, self.rng
        )
        n_lost = int(np.count_nonzero(lost))
        if n_lost:
            self.losses += n_lost
            if tracing:
                row, sender_id = tracer.row, int(sender)
                for receiver in receivers[lost].tolist():
                    row(now, "radio.loss", receiver, LOSS_KEYS, sender_id)
            survivors = receivers[~lost]
            if not len(survivors):
                return 0
        else:
            survivors = receivers

        self.sim.schedule_batch(
            now + draw_delays(self.rng, self.max_delay, len(survivors)),
            survivors,
            partial(self._deliver_copy, (sender, recipient, payload, now)),
        )
        return len(survivors)

    def _deliver_copy(
        self,
        transmission: Tuple[NodeId, Optional[NodeId], object, SimTime],
        receiver: NodeId,
    ) -> None:
        """Lane callback: one copy of ``transmission`` reaches ``receiver`` now."""
        sender, recipient, payload, sent_at = transmission
        self._deliver(
            receiver,
            Envelope(
                sender,
                recipient,
                payload,
                sent_at,
                self.sim.now,
                recipient is not None and receiver != recipient,
            ),
        )

    def _deliver(self, receiver: NodeId, envelope: Envelope) -> None:
        # Receiver may have crashed/unregistered since the copy left.
        if not self._receiving.get(receiver, False):
            return
        self.deliveries += 1
        if self.tracer.enabled:
            self.tracer.row(
                envelope.received_at,
                "radio.rx",
                int(receiver),
                RX_KEYS,
                int(envelope.sender),
                envelope.overheard,
                envelope.received_at - envelope.sent_at,
            )
        profiler = self.sim.profiler
        if profiler.enabled:
            t0 = perf_counter()
            try:
                self._handlers[receiver](envelope)
            finally:
                profiler.add(PHASE_RADIO_DELIVER, t0)
        else:
            self._handlers[receiver](envelope)

    def message_stats(self) -> Dict[str, int]:
        """Cumulative medium-level counters."""
        return {
            "transmissions": self.transmissions,
            "deliveries": self.deliveries,
            "losses": self.losses,
        }
