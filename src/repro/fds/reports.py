"""Failure-report bookkeeping.

Each node accumulates a monotone set of known failures; clusterheads
additionally track which failures each neighboring cluster has acknowledged
(via the implicit-ack relay) so gateways forward each failure across each
boundary at most the bounded-retry number of times.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from repro.types import NodeId


class ReportHistory:
    """A node's cumulative failure knowledge.

    ``add`` returns the *novel* subset, which is what drives "no news is
    good news": only novelty triggers relays and inter-cluster forwarding.

    The fail-stop model makes failure knowledge monotone; the single
    exception is a *refuted* false detection (direct evidence that a
    "failed" node is alive), which removes the node and remembers the
    refutation so metrics can count it.
    """

    def __init__(self) -> None:
        #: The live set behind :attr:`known`: hot paths test membership
        #: on it directly (no ``__contains__`` frame); change it only
        #: through :meth:`add` and :meth:`refute`.
        self.failed: Set[NodeId] = set()
        self.refuted_total = 0

    @property
    def known(self) -> FrozenSet[NodeId]:
        return frozenset(self.failed)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self.failed

    def __len__(self) -> int:
        return len(self.failed)

    def add(self, failures: FrozenSet[NodeId] | Set[NodeId]) -> FrozenSet[NodeId]:
        """Merge ``failures``; returns the subset that was new."""
        novel = frozenset(failures) - frozenset(self.failed)
        self.failed.update(novel)
        return novel

    def refute(self, node_id: NodeId) -> bool:
        """Remove a falsely suspected node; True if it was present."""
        if node_id in self.failed:
            self.failed.discard(node_id)
            self.refuted_total += 1
            return True
        return False


class BoundaryLedger:
    """Per-boundary forwarding state for a GW/BGW or originating CH.

    Tracks, per peer clusterhead, which failure NIDs have been acknowledged
    (covered by an overheard relay from that peer) and how many times each
    pending failure has been (re)transmitted.
    """

    def __init__(self) -> None:
        self._acked: Dict[NodeId, Set[NodeId]] = {}
        self._attempts: Dict[NodeId, Dict[NodeId, int]] = {}

    def acked(self, peer: NodeId) -> FrozenSet[NodeId]:
        return frozenset(self._acked.get(peer, set()))

    def note_ack(self, peer: NodeId, failures: FrozenSet[NodeId]) -> None:
        """Record that ``peer``'s cluster has re-broadcast these failures."""
        self._acked.setdefault(peer, set()).update(failures)

    def pending(self, peer: NodeId, failures: FrozenSet[NodeId]) -> FrozenSet[NodeId]:
        """The subset of ``failures`` not yet acked by ``peer``."""
        return failures - self.acked(peer)

    def note_attempt(self, peer: NodeId, failures: FrozenSet[NodeId]) -> None:
        """Count one transmission attempt toward each failure."""
        per_peer = self._attempts.setdefault(peer, {})
        for nid in failures:
            per_peer[nid] = per_peer.get(nid, 0) + 1

    def attempts(self, peer: NodeId, failure: NodeId) -> int:
        return self._attempts.get(peer, {}).get(failure, 0)

    def within_budget(
        self, peer: NodeId, failures: FrozenSet[NodeId], max_attempts: int
    ) -> FrozenSet[NodeId]:
        """The subset of ``failures`` still under the retry budget."""
        return frozenset(
            nid for nid in failures if self.attempts(peer, nid) < max_attempts
        )

    def clear_failure(self, node_id: NodeId) -> None:
        """Forget all state about a failure id (it was refuted).

        Without this, a refuted node that later *really* crashes would be
        treated as already acknowledged and never forwarded again.
        """
        for acked in self._acked.values():
            acked.discard(node_id)
        for per_peer in self._attempts.values():
            per_peer.pop(node_id, None)
