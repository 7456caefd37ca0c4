"""Scenario topology generators.

:func:`multi_cluster_field` composes cluster disks into the field the
paper's introduction motivates: a lattice with guaranteed CH spacing.
One cluster is Section 5's analysis cluster
(:func:`~repro.topology.placement.cluster_disk_placement` draws the same
nodes), and one row (``columns=cluster_count``) is a corridor that
stresses inter-cluster forwarding depth.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.errors import TopologyError
from repro.topology.placement import Placement
from repro.types import NodeId
from repro.util.geometry import Vec2, sample_in_disk
from repro.util.validation import check_int_at_least, check_positive


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
