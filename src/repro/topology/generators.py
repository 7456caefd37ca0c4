"""Scenario topology generators.

:func:`multi_cluster_field` composes cluster disks into the field the
paper's introduction motivates: a lattice with guaranteed CH spacing.
One cluster is Section 5's analysis cluster
(:func:`~repro.topology.placement.cluster_disk_placement` draws the same
nodes), and one row (``columns=cluster_count``) is a corridor that
stresses inter-cluster forwarding depth.

:func:`draw_lattice` is the one draw and the one set of field checks
behind it; the array engine's lattice layout
(:mod:`repro.sim.array_engine.layout`) takes its coordinate arrays
directly.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology.placement import Placement
from repro.types import NodeId
from repro.util.geometry import Vec2
from repro.util.validation import check_int_at_least, check_positive


def draw_lattice(
    cluster_count: int,
    members_per_cluster: int,
    radius: float,
    rng: np.random.Generator,
    spacing_factor: float = 1.6,
    columns: int | None = None,
) -> Tuple[int, float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(cols, spacing, hx, hy, mx, my)``: the validated lattice and its
    head and member coordinates.

    Head ``i`` sits at lattice point ``divmod(i, cols)`` (row, column);
    ``members_per_cluster`` members per head follow in head order, each
    uniform in its head's disk (``r = R * sqrt(u)``, ``theta = 2 pi u'``
    from one ``random(2n)`` block, so ``u, u'`` alternate like two
    scalar draws per member).  ``columns`` defaults to the squarest
    lattice.
    """
    check_int_at_least("cluster_count", cluster_count, 1)
    check_int_at_least("members_per_cluster", members_per_cluster, 1)
    check_positive("radius", radius)
    if not 1.0 < spacing_factor < 2.0:
        raise TopologyError(
            "spacing_factor must be in (1, 2) so disks overlap without "
            f"CHs being mutual neighbors; got {spacing_factor}"
        )
    if columns is None:
        columns = max(1, int(math.ceil(math.sqrt(cluster_count))))
    check_int_at_least("columns", columns, 1)
    spacing = spacing_factor * radius
    idx = np.arange(cluster_count, dtype=np.int64)
    hx = (idx % columns).astype(np.float64) * spacing
    hy = (idx // columns).astype(np.float64) * spacing
    count = cluster_count * members_per_cluster
    u = rng.random(2 * count)
    rr = radius * np.sqrt(u[0::2])
    theta = 2.0 * math.pi * u[1::2]
    disk = np.arange(count, dtype=np.int64) // members_per_cluster
    mx = hx[disk] + rr * np.cos(theta)
    my = hy[disk] + rr * np.sin(theta)
    return columns, spacing, hx, hy, mx, my


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
    the intended centers; member NIDs follow.  The coordinates are
    :func:`draw_lattice`'s.
    """
    _, _, hx, hy, mx, my = draw_lattice(
        cluster_count, members_per_cluster, radius, rng, spacing_factor, columns
    )
    xs = np.concatenate([hx, mx]).tolist()
    ys = np.concatenate([hy, my]).tolist()
    return {NodeId(i): Vec2(x, y) for i, (x, y) in enumerate(zip(xs, ys))}
