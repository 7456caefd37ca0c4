"""Scenario topology generators.

These compose the low-level placements into the field layouts the paper's
introduction motivates: a single analysis cluster (Section 5), a
multi-cluster field with guaranteed CH spacing, and a corridor (chain of
clusters) that stresses inter-cluster forwarding depth.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from repro.errors import TopologyError
from repro.topology.placement import Placement, cluster_disk_placement
from repro.types import NodeId
from repro.util.geometry import Vec2, sample_in_disk
from repro.util.validation import check_int_at_least, check_positive


def single_cluster_disk(
    member_count: int,
    radius: float,
    rng: np.random.Generator,
    worst_case_member: bool = False,
) -> Placement:
    """The paper's Section 5 setting: one CH-centered cluster disk.

    ``member_count`` is the number of non-CH members; total population is
    ``member_count + 1`` (the paper's ``N`` counts all hosts in the
    cluster, so pass ``member_count = N - 1``).
    """
    return cluster_disk_placement(
        member_count=member_count,
        radius=radius,
        rng=rng,
        worst_case_member=worst_case_member,
    )


def multi_cluster_field(
    cluster_count: int,
    members_per_cluster: int,
    radius: float,
    rng: np.random.Generator,
    spacing_factor: float = 1.6,
    columns: int | None = None,
) -> Placement:
    """A lattice of overlapping cluster disks with CHs at lattice points.

    CH spacing defaults to ``1.6 * radius``: close enough that neighboring
    cluster disks overlap (so gateway candidates exist, feature F1), far
    enough apart that CHs are not neighbors of each other.  CHs receive the
    lowest NIDs (0..cluster_count-1) so the lowest-ID policy elects exactly
    the intended centers; member NIDs follow.
    """
    check_int_at_least("cluster_count", cluster_count, 1)
    check_int_at_least("members_per_cluster", members_per_cluster, 1)
    check_positive("radius", radius)
    if not 1.0 < spacing_factor < 2.0:
        raise TopologyError(
            "spacing_factor must be in (1, 2) so disks overlap without "
            f"CHs being mutual neighbors; got {spacing_factor}"
        )
    cols = columns if columns is not None else max(1, int(math.ceil(math.sqrt(cluster_count))))
    spacing = spacing_factor * radius
    placement: Placement = {}
    centers: List[Vec2] = []
    for i in range(cluster_count):
        row, col = divmod(i, cols)
        center = Vec2(col * spacing, row * spacing)
        centers.append(center)
        placement[NodeId(i)] = center
    next_id = cluster_count
    for center in centers:
        for _ in range(members_per_cluster):
            placement[NodeId(next_id)] = sample_in_disk(rng, center, radius)
            next_id += 1
    return placement


def corridor_field(
    cluster_count: int,
    members_per_cluster: int,
    radius: float,
    rng: np.random.Generator,
    spacing_factor: float = 1.6,
) -> Placement:
    """A 1-D chain of overlapping clusters.

    Failure reports from one end must cross ``cluster_count - 1`` boundaries
    to reach the other -- the stress case for inter-cluster forwarding and
    the BGW standby mechanism.
    """
    return multi_cluster_field(
        cluster_count=cluster_count,
        members_per_cluster=members_per_cluster,
        radius=radius,
        rng=rng,
        spacing_factor=spacing_factor,
        columns=cluster_count,
    )
