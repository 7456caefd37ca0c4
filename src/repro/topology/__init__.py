"""Topology: node placement, unit-disk graphs, and structural analysis."""

from repro.topology.analysis import (
    connected_components,
    degree_statistics,
    is_connected,
    isolated_nodes,
)
from repro.topology.generators import multi_cluster_field
from repro.topology.graph import UnitDiskGraph
from repro.topology.placement import (
    cluster_disk_placement,
    gaussian_blobs_placement,
    grid_placement,
    uniform_disk_placement,
    uniform_rect_placement,
)

__all__ = [
    "UnitDiskGraph",
    "uniform_disk_placement",
    "uniform_rect_placement",
    "grid_placement",
    "gaussian_blobs_placement",
    "cluster_disk_placement",
    "multi_cluster_field",
    "connected_components",
    "degree_statistics",
    "is_connected",
    "isolated_nodes",
]
