"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.geometric import build_clusters
from repro.sim.network import NetworkConfig, build_network
from repro.topology.generators import multi_cluster_field
from repro.topology.graph import UnitDiskGraph
from repro.topology.placement import cluster_disk_placement
from repro.util.rng import RngFactory


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_cluster_placement(rng):
    """One cluster: CH (NID 0) at the origin plus 19 uniform members."""
    return cluster_disk_placement(member_count=19, radius=100.0, rng=rng)


@pytest.fixture
def small_cluster(small_cluster_placement):
    """(placement, graph, layout) for the single small cluster."""
    graph = UnitDiskGraph(small_cluster_placement, radius=100.0)
    layout = build_clusters(graph)
    return small_cluster_placement, graph, layout


@pytest.fixture
def two_cluster_world(rng):
    """(placement, graph, layout) for two overlapping clusters."""
    placement = multi_cluster_field(
        cluster_count=2, members_per_cluster=15, radius=100.0, rng=rng,
        columns=2,
    )
    graph = UnitDiskGraph(placement, radius=100.0)
    layout = build_clusters(graph)
    return placement, graph, layout


def make_lossless_network(placement, seed: int = 0):
    """A network over ``placement`` with perfect links."""
    return build_network(
        placement,
        NetworkConfig(transmission_range=100.0, loss_probability=0.0, seed=seed),
    )


def make_lossy_network(placement, p: float, seed: int = 0, tracer=None):
    """A network over ``placement`` with Bernoulli loss probability p."""
    return build_network(
        placement,
        NetworkConfig(transmission_range=100.0, loss_probability=p, seed=seed),
        tracer=tracer,
    )
