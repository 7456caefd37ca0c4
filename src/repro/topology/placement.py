"""Node placement generators.

All placements return ``dict[NodeId, Vec2]`` keyed by consecutive NIDs
starting at ``first_id``.  NIDs are assigned in generation order, which for
uniform placements means they carry no spatial information -- important
because the lowest-ID clustering policy must not be accidentally correlated
with geometry.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

from repro.errors import TopologyError
from repro.types import NodeId
from repro.util.geometry import Vec2, sample_in_disk
from repro.util.validation import check_int_at_least, check_positive

Placement = Dict[NodeId, Vec2]


def _check_count(count: int) -> int:
    return check_int_at_least("count", count, 1)


def uniform_disk_placement(
    count: int,
    radius: float,
    rng: np.random.Generator,
    center: Vec2 = Vec2(0.0, 0.0),
    first_id: int = 0,
) -> Placement:
    """``count`` nodes uniform in the disk -- the paper's Section 5 setting.

    With ``radius`` equal to the transmission range, every node is a one-hop
    neighbor of a host at the center, i.e. the placement is a valid cluster
    around a central CH.
    """
    _check_count(count)
    check_positive("radius", radius)
    return {
        NodeId(first_id + i): sample_in_disk(rng, center, radius)
        for i in range(count)
    }


def uniform_rect_placement(
    count: int,
    width: float,
    height: float,
    rng: np.random.Generator,
    origin: Vec2 = Vec2(0.0, 0.0),
    first_id: int = 0,
) -> Placement:
    """``count`` nodes uniform in a ``width x height`` rectangle."""
    _check_count(count)
    check_positive("width", width)
    check_positive("height", height)
    xs = rng.uniform(origin.x, origin.x + width, size=count)
    ys = rng.uniform(origin.y, origin.y + height, size=count)
    return {
        NodeId(first_id + i): Vec2(float(xs[i]), float(ys[i])) for i in range(count)
    }


def grid_placement(
    rows: int,
    cols: int,
    spacing: float,
    origin: Vec2 = Vec2(0.0, 0.0),
    jitter: float = 0.0,
    rng: np.random.Generator | None = None,
    first_id: int = 0,
) -> Placement:
    """A ``rows x cols`` lattice with optional uniform jitter.

    Deterministic when ``jitter == 0``; useful for tests that need exact
    neighbor structure.
    """
    check_int_at_least("rows", rows, 1)
    check_int_at_least("cols", cols, 1)
    check_positive("spacing", spacing)
    if jitter < 0:
        raise TopologyError(f"jitter must be >= 0, got {jitter}")
    if jitter > 0 and rng is None:
        raise TopologyError("jitter > 0 requires an rng")
    placement: Placement = {}
    i = 0
    for r in range(rows):
        for c in range(cols):
            dx = dy = 0.0
            if jitter > 0:
                assert rng is not None
                dx = float(rng.uniform(-jitter, jitter))
                dy = float(rng.uniform(-jitter, jitter))
            placement[NodeId(first_id + i)] = Vec2(
                origin.x + c * spacing + dx, origin.y + r * spacing + dy
            )
            i += 1
    return placement


def gaussian_blobs_placement(
    counts: Sequence[int],
    centers: Sequence[Vec2],
    sigma: float,
    rng: np.random.Generator,
    first_id: int = 0,
) -> Placement:
    """Gaussian blobs: ``counts[i]`` nodes around ``centers[i]``.

    Models a field seeded by discrete air-drops, each scattering around its
    release point.
    """
    if len(counts) != len(centers):
        raise TopologyError("counts and centers must have the same length")
    check_positive("sigma", sigma)
    placement: Placement = {}
    next_id = first_id
    for count, center in zip(counts, centers):
        check_int_at_least("blob count", count, 1)
        for _ in range(count):
            placement[NodeId(next_id)] = Vec2(
                center.x + float(rng.normal(0.0, sigma)),
                center.y + float(rng.normal(0.0, sigma)),
            )
            next_id += 1
    return placement


def cluster_disk_placement(
    member_count: int,
    radius: float,
    rng: np.random.Generator,
    center: Vec2 = Vec2(0.0, 0.0),
    ch_id: int = 0,
    worst_case_member: bool = False,
) -> Placement:
    """A single analysis cluster: a CH at the center plus uniform members.

    The CH gets the lowest NID (``ch_id``) so lowest-ID clustering elects
    it.  When ``worst_case_member`` is set, the *highest*-NID member is
    placed on the circumference -- the worst case of Figure 4(b) that the
    paper's bounds are computed against.  Where rounding puts it outside
    the range test (``dx*dx + dy*dy <= r*r``), it steps toward the center
    one ulp per coordinate until it passes.
    """
    check_int_at_least("member_count", member_count, 1)
    check_positive("radius", radius)
    placement: Placement = {NodeId(ch_id): center}
    for i in range(member_count):
        placement[NodeId(ch_id + 1 + i)] = sample_in_disk(rng, center, radius)
    if worst_case_member:
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        x = center.x + radius * math.cos(theta)
        y = center.y + radius * math.sin(theta)
        while True:
            dx, dy = x - center.x, y - center.y
            if dx * dx + dy * dy <= radius * radius:
                break
            x = float(np.nextafter(x, center.x))
            y = float(np.nextafter(y, center.y))
        placement[NodeId(ch_id + member_count)] = Vec2(x, y)
    return placement
