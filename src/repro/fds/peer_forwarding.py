"""Intra-cluster peer forwarding (Section 4.2, completeness enhancement).

fds.R-3 has no built-in redundancy: a member that loses the CH's (or
DCH's) health-status update would stay ignorant of detected failures.  The
paper's remedy:

- at the end of R-3 (the report-receiving timeout) the node broadcasts a
  forwarding request;
- each in-cluster neighbor holding the update arms a *waiting period* that
  is unique per node (a function of NID) and inversely proportional to its
  remaining energy (:class:`~repro.energy.policy.WaitingPeriodPolicy`);
- the first timer to expire forwards the update; the requester broadcasts
  an acknowledgment, upon which all other pending forwarders stand down.

Peer forwarding is what lets a member out of the DCH's transmission range
(Figure 2) still learn of a takeover: any common neighbor relays on
request.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from repro.energy.policy import WaitingPeriodPolicy
from repro.fds.config import FdsConfig
from repro.fds.messages import (
    HealthStatusUpdate,
    PeerForward,
    PeerForwardAck,
    PeerForwardRequest,
)
from repro.fds.substrate import Substrate, TimerHandle
from repro.types import NodeId


class PeerForwarder:
    """Per-node peer-forwarding state machine.

    The owning :class:`~repro.fds.service.FdsProtocol` routes the three
    peer-forwarding message types here and provides:

    ``get_update(execution)``
        the R-3 update this node holds for the given execution (or None);
    ``accept_update(update)``
        merge a recovered update into the node's state;
    ``energy_fraction()``
        the node's current remaining-energy fraction in [0, 1].
    """

    def __init__(
        self,
        node: Substrate,
        config: FdsConfig,
        get_update: Callable[[int], Optional[HealthStatusUpdate]],
        accept_update: Callable[[HealthStatusUpdate], None],
        energy_fraction: Callable[[], float],
    ) -> None:
        self._node = node
        self._config = config
        self._policy = WaitingPeriodPolicy(slot=config.wait_slot)
        self._get_update = get_update
        self._accept_update = accept_update
        self._energy_fraction = energy_fraction
        # Responder state: (requester, execution) -> armed timer.
        self._pending: Dict[Tuple[NodeId, int], TimerHandle] = {}
        # Requester state.
        self._requested_execution: Optional[int] = None
        self._recovered = False
        # Counters for metrics.
        self.requests_sent = 0
        self.forwards_sent = 0
        self.recoveries = 0

    # -- requester side --------------------------------------------------
    def request_update(self, execution: int) -> None:
        """Broadcast a forwarding request (called at the end of R-3)."""
        self._requested_execution = execution
        self._recovered = False
        self.requests_sent += 1
        self._node.send(
            PeerForwardRequest(sender=self._node.node_id, execution=execution)
        )

    def on_peer_forward(self, message: PeerForward) -> None:
        """A neighbor answered some requester's plea.

        If we are that requester and still unrecovered, accept and ack.
        Overheard copies for other requesters are ignored (their own acks
        stand the forwarders down).
        """
        if message.requester != self._node.node_id:
            return
        if self._requested_execution is None:
            return
        if message.update.execution != self._requested_execution:
            return
        if self._recovered:
            return
        self._recovered = True
        self.recoveries += 1
        self._accept_update(message.update)
        self._node.send(
            PeerForwardAck(
                sender=self._node.node_id, execution=message.update.execution
            )
        )

    # -- responder side ---------------------------------------------------
    def on_request(self, request: PeerForwardRequest) -> None:
        """A neighbor asked for the update; arm the energy-aware wait."""
        if request.sender == self._node.node_id:
            return
        update = self._get_update(request.execution)
        if update is None:
            return
        key = (request.sender, request.execution)
        if key in self._pending:
            return
        delay = self._policy.waiting_period(
            self._node.node_id, self._energy_fraction()
        )

        def forward() -> None:
            self._pending.pop(key, None)
            current = self._get_update(request.execution)
            if current is None:
                return
            self.forwards_sent += 1
            self._node.send(
                PeerForward(
                    sender=self._node.node_id,
                    requester=request.sender,
                    update=current,
                )
            )

        self._pending[key] = self._node.timers.after(
            delay, forward, label="fds.peer_forward_wait"
        )

    def on_ack(self, ack: PeerForwardAck) -> None:
        """The requester recovered; stand down any pending forward to it."""
        key = (ack.sender, ack.execution)
        timer = self._pending.pop(key, None)
        if timer is not None:
            timer.stop()

    def reset_for_execution(self) -> None:
        """Drop stale responder timers at the start of a new execution."""
        for timer in self._pending.values():
            timer.stop()
        self._pending.clear()
        self._requested_execution = None
        self._recovered = False
