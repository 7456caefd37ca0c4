"""Message accounting for a run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.fds.service import FdsDeployment
from repro.types import NodeId


@dataclass(frozen=True)
class MessageCounts:
    """Medium-level and protocol-level message statistics."""

    transmissions: int
    deliveries: int
    losses: int
    peer_requests: int
    peer_forwards: int
    peer_recoveries: int
    reports_sent: int
    report_retransmissions: int
    bgw_activations: int
    origin_retransmissions: int

    @property
    def loss_rate(self) -> float:
        """Observed per-copy loss rate (should track the configured p)."""
        attempted = self.deliveries + self.losses
        return self.losses / attempted if attempted else 0.0


def collect_message_counts(
    deployment: FdsDeployment, stats: Optional[Dict[str, int]] = None
) -> MessageCounts:
    """Aggregate counters from the medium (or the ``stats`` of a run
    without one) and every protocol instance."""
    if stats is None:
        stats = deployment.network.medium.message_stats()
    peer_requests = peer_forwards = peer_recoveries = 0
    reports = retrans = bgw = origin = 0
    for protocol in deployment.protocols.values():
        if protocol.peer is not None:
            peer_requests += protocol.peer.requests_sent
            peer_forwards += protocol.peer.forwards_sent
            peer_recoveries += protocol.peer.recoveries
        if protocol.inter is not None:
            reports += protocol.inter.reports_sent
            retrans += protocol.inter.retransmissions
            bgw += protocol.inter.bgw_activations
            origin += protocol.inter.origin_retransmissions
    return MessageCounts(
        transmissions=stats["transmissions"],
        deliveries=stats["deliveries"],
        losses=stats["losses"],
        peer_requests=peer_requests,
        peer_forwards=peer_forwards,
        peer_recoveries=peer_recoveries,
        reports_sent=reports,
        report_retransmissions=retrans,
        bgw_activations=bgw,
        origin_retransmissions=origin,
    )
