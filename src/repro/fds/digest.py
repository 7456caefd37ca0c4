"""Digest construction (fds.R-2).

A digest "enumerates the nodes in C from which the sender node hears or
overhears their heartbeats during fds.R-1".  The filtering to cluster
members matters: overheard heartbeats from *other* clusters (the disks
overlap, feature F1) must not leak into the digest, or the CH would track
foreign nodes.
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet

from repro.fds.messages import Digest
from repro.types import NodeId


def build_digest(
    sender: NodeId,
    execution: int,
    heard_heartbeats: AbstractSet[NodeId],
    cluster_members: AbstractSet[NodeId],
) -> Digest:
    """The digest a node sends to its CH.

    ``heard_heartbeats`` is everything heard in R-1 (possibly including
    foreign-cluster nodes); the digest keeps only cluster members.  The
    sender never lists itself -- its own liveness is evidenced by the
    digest message itself.
    """
    heard: FrozenSet[NodeId] = frozenset(
        nid for nid in heard_heartbeats if nid in cluster_members and nid != sender
    )
    return Digest(sender=sender, execution=execution, heard=heard)
