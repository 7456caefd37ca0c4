"""FDS wire messages.

All messages are immutable dataclasses.  Field conventions:

- ``sender`` -- NID of the transmitting node;
- ``execution`` -- the FDS execution index (epoch counter) the message
  belongs to, used to discard stale copies;
- failure sets are ``frozenset`` of NIDs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.types import NodeId


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """fds.R-1: NID plus the one-bit mark indicator (Section 4.2 / F5)."""

    sender: NodeId
    execution: int
    marked: bool = True


@dataclass(frozen=True, slots=True)
class Digest:
    """fds.R-2: the in-cluster nodes whose heartbeats the sender heard."""

    sender: NodeId
    execution: int
    heard: FrozenSet[NodeId]


@dataclass(frozen=True, slots=True)
class HealthStatusUpdate:
    """fds.R-3 broadcast (and asynchronous relays of remote reports).

    ``head`` is the broadcasting authority (the CH, or the DCH on
    takeover).  ``new_failures`` are newly detected this execution (local
    detections and newly learned remote failures); ``known_failures`` is
    the cumulative set; ``admissions`` are newly subscribed members (F5).
    ``takeover_from`` is set when a DCH has detected the CH's failure and
    assumed its duties; ``relay`` marks asynchronous re-broadcasts of
    remote failure reports (which also serve as the implicit
    acknowledgment of Section 4.3).
    """

    head: NodeId
    execution: int
    new_failures: FrozenSet[NodeId] = frozenset()
    known_failures: FrozenSet[NodeId] = frozenset()
    admissions: FrozenSet[NodeId] = frozenset()
    takeover_from: Optional[NodeId] = None
    relay: bool = False
    #: Full current membership, included only when it changed this
    #: execution (admissions or takeover) so newly admitted members and
    #: survivors of a CH failure synchronize their local views.
    membership: Optional[FrozenSet[NodeId]] = None
    #: Nodes previously announced failed that the authority has since seen
    #: direct liveness evidence from (false detections being repaired).
    refutations: FrozenSet[NodeId] = frozenset()
    #: Current ranked deputy list.  The CH re-ranks deputies by observed
    #: digest coverage (the best-connected members make the safest
    #: takeover authorities -- Section 4.2's reachability discussion) and
    #: announces the ranking so the whole cluster agrees on the authority.
    deputies: Optional[Tuple[NodeId, ...]] = None


@dataclass(frozen=True, slots=True)
class FailureReport:
    """Across-cluster forwarding payload (Section 4.3).

    ``failures`` are the NIDs being reported; ``history`` optionally
    carries previously detected failures for completeness repair;
    ``origin`` is the cluster that detected them; ``target_head`` is the
    CH the forwarder is addressing.
    """

    sender: NodeId
    origin: NodeId
    target_head: NodeId
    failures: FrozenSet[NodeId]
    history: FrozenSet[NodeId] = frozenset()
    #: Piggybacked false-detection repairs (best-effort, no retry ladder).
    refutations: FrozenSet[NodeId] = frozenset()


@dataclass(frozen=True, slots=True)
class PeerForwardRequest:
    """A node that missed the R-3 update asks its neighbors for a copy."""

    sender: NodeId
    execution: int


@dataclass(frozen=True, slots=True)
class PeerForward:
    """A neighbor forwards the missed update to the requester."""

    sender: NodeId
    requester: NodeId
    update: HealthStatusUpdate


@dataclass(frozen=True, slots=True)
class PeerForwardAck:
    """The requester announces recovery; pending forwarders stand down."""

    sender: NodeId
    execution: int
