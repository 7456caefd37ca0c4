"""A SWIM-style failure detector (Das, Gupta & Motivala, 2002).

Randomized probing: each protocol period a node pings one member chosen
uniformly at random from those it believes alive and within reach.  If no
ack arrives within the timeout, it asks ``proxy_count`` other members to
ping the target on its behalf (ping-req); if no indirect ack arrives
either, the target is declared failed and the declaration is broadcast
(the wireless stand-in for SWIM's infection-style dissemination; receivers
re-broadcast a declaration once, giving multi-hop spread).

SWIM is the modern point of comparison for any membership failure
detector; against the paper's FDS it trades per-round detection of *every*
member for constant per-period load with expected-time detection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Set

import numpy as np

from repro.errors import ConfigurationError
from repro.fds.reports import ReportHistory
from repro.sim.medium import Envelope
from repro.sim.network import Network
from repro.sim.node import Protocol
from repro.types import NodeId
from repro.util.validation import check_int_at_least, check_positive


@dataclass(frozen=True, slots=True)
class Ping:
    sender: NodeId
    target: NodeId
    sequence: int


@dataclass(frozen=True, slots=True)
class Ack:
    sender: NodeId
    target: NodeId  # the original prober
    sequence: int


@dataclass(frozen=True, slots=True)
class PingReq:
    sender: NodeId
    proxy: NodeId
    target: NodeId
    sequence: int


@dataclass(frozen=True, slots=True)
class FailureDeclaration:
    sender: NodeId
    target: NodeId
    #: Hop budget for re-broadcast dissemination.
    ttl: int


@dataclass(frozen=True)
class SwimConfig:
    """SWIM tuning."""

    period: float = 1.0
    ack_timeout: float = 0.25
    proxy_count: int = 3
    declaration_ttl: int = 8

    def __post_init__(self) -> None:
        check_positive("period", self.period)
        check_positive("ack_timeout", self.ack_timeout)
        check_int_at_least("proxy_count", self.proxy_count, 0)
        check_int_at_least("declaration_ttl", self.declaration_ttl, 1)
        if 2 * self.ack_timeout >= self.period:
            raise ConfigurationError(
                "period must exceed twice the ack timeout (direct + indirect)"
            )


class SwimFd(Protocol):
    """Per-node SWIM-style failure detector."""

    name = "swim-fd"

    def __init__(
        self,
        config: SwimConfig,
        membership: frozenset[NodeId],
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.config = config
        self.membership = membership
        self.rng = rng
        self.history = ReportHistory()
        self._sequence = itertools.count()
        self._acked: Set[int] = set()
        #: Targets whose declaration we already re-broadcast (dedup by
        #: target: re-flooding per origin would multiply traffic with no
        #: information gain).
        self._seen_declarations: Set[NodeId] = set()
        self.pings_sent = 0
        self.ping_reqs_sent = 0
        self.declarations_sent = 0

    # ------------------------------------------------------------------
    def start(self, first_tick: float, until: float) -> None:
        assert self.node is not None

        def tick() -> None:
            assert self.node is not None
            self._probe_once()
            if self.node.sim.now + self.config.period <= until:
                self.node.timers.after(self.config.period, tick)

        self.node.timers.after(max(0.0, first_tick - self.node.sim.now), tick)

    def _alive_candidates(self) -> list[NodeId]:
        assert self.node is not None
        return sorted(
            nid
            for nid in self.membership
            if nid != self.node.node_id and nid not in self.history
        )

    def _probe_once(self) -> None:
        assert self.node is not None
        candidates = self._alive_candidates()
        if not candidates:
            return
        target = NodeId(int(self.rng.choice(np.asarray(candidates, dtype=np.int64))))
        sequence = next(self._sequence)
        self.pings_sent += 1
        self.node.send(
            Ping(sender=self.node.node_id, target=target, sequence=sequence),
            recipient=target,
        )
        self.node.timers.after(
            self.config.ack_timeout,
            lambda: self._direct_timeout(target, sequence),
        )

    def _direct_timeout(self, target: NodeId, sequence: int) -> None:
        assert self.node is not None
        if sequence in self._acked:
            return
        proxies = [n for n in self._alive_candidates() if n != target]
        if proxies and self.config.proxy_count > 0:
            chosen = self.rng.choice(
                np.asarray(proxies, dtype=np.int64),
                size=min(self.config.proxy_count, len(proxies)),
                replace=False,
            )
            for proxy in chosen:
                self.ping_reqs_sent += 1
                self.node.send(
                    PingReq(
                        sender=self.node.node_id,
                        proxy=NodeId(int(proxy)),
                        target=target,
                        sequence=sequence,
                    ),
                    recipient=NodeId(int(proxy)),
                )
        self.node.timers.after(
            self.config.ack_timeout,
            lambda: self._indirect_timeout(target, sequence),
        )

    def _indirect_timeout(self, target: NodeId, sequence: int) -> None:
        assert self.node is not None
        if sequence in self._acked or target in self.history:
            return
        self.history.add(frozenset({target}))
        self.node.medium.tracer.record(
            self.node.sim.now,
            "swim.detection",
            node=int(self.node.node_id),
            target=int(target),
        )
        self._broadcast_declaration(target, self.config.declaration_ttl)

    def _broadcast_declaration(self, target: NodeId, ttl: int) -> None:
        assert self.node is not None
        self.declarations_sent += 1
        self.node.send(
            FailureDeclaration(
                sender=self.node.node_id, target=target, ttl=ttl
            )
        )

    # ------------------------------------------------------------------
    def on_receive(self, envelope: Envelope) -> None:
        assert self.node is not None
        payload = envelope.payload
        my_id = self.node.node_id
        if isinstance(payload, Ping):
            if payload.target == my_id:
                self.node.send(
                    Ack(sender=my_id, target=payload.sender,
                        sequence=payload.sequence),
                    recipient=payload.sender,
                )
        elif isinstance(payload, Ack):
            if payload.target == my_id:
                self._acked.add(payload.sequence)
        elif isinstance(payload, PingReq):
            if payload.proxy == my_id:
                # Probe on the requester's behalf; relay the requester's
                # identity so the ack can be forwarded back.
                self.node.send(
                    Ping(sender=payload.sender, target=payload.target,
                         sequence=payload.sequence),
                    recipient=payload.target,
                )
        elif isinstance(payload, FailureDeclaration):
            if payload.target == my_id:
                return  # false declaration about us; ignore (we are alive)
            if payload.target in self._seen_declarations:
                return
            self._seen_declarations.add(payload.target)
            if payload.target not in self.history:
                self.history.add(frozenset({payload.target}))
            if payload.ttl > 1:
                self._broadcast_declaration(payload.target, payload.ttl - 1)


@dataclass
class SwimDeployment:
    """A SWIM FD installed across a network."""

    network: Network
    config: SwimConfig
    protocols: Dict[NodeId, SwimFd]

    def run_until(self, end: float) -> None:
        self.network.sim.run_until(end)

    def histories(self) -> Dict[NodeId, ReportHistory]:
        return {nid: p.history for nid, p in self.protocols.items()}

    def messages_sent(self) -> int:
        return sum(
            p.pings_sent + p.ping_reqs_sent + p.declarations_sent
            for p in self.protocols.values()
        )


def install_swim(
    network: Network,
    config: Optional[SwimConfig] = None,
    start_time: float = 0.0,
    until: float = 60.0,
    membership_scope: str = "all",
) -> SwimDeployment:
    """Attach and start a :class:`SwimFd` on every node.

    ``membership_scope="all"`` gives every node the full member list --
    SWIM's wired-network assumption, which over a multi-hop radio field
    produces false detections of unreachable-but-alive nodes (the paper's
    argument for locality).  ``"neighbors"`` scopes each probe list to the
    node's one-hop neighborhood.
    """
    cfg = config if config is not None else SwimConfig()
    if membership_scope not in ("all", "neighbors"):
        raise ConfigurationError(
            f"membership_scope must be 'all' or 'neighbors', got "
            f"{membership_scope!r}"
        )
    protocols: Dict[NodeId, SwimFd] = {}
    for node_id, node in sorted(network.nodes.items()):
        if membership_scope == "all":
            membership = frozenset(network.nodes)
        else:
            membership = frozenset(network.medium.neighbors_of(node_id)) | {
                node_id
            }
        protocol = SwimFd(cfg, membership, network.rngs.stream("swim", int(node_id)))
        node.add_protocol(protocol)
        protocol.start(start_time, until)
        protocols[node_id] = protocol
    return SwimDeployment(network=network, config=cfg, protocols=protocols)
