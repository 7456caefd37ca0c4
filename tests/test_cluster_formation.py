"""Tests for the distributed cluster-formation protocol."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.formation import (
    FormationConfig,
    FormationProtocol,
    install_formation,
    pack_formation_state,
    run_formation,
)
from repro.cluster.geometric import build_clusters
from repro.errors import ClusteringError, ExperimentError
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.sim.array_engine.formation import formation_array_layout
from repro.sim.network import NetworkConfig, build_network
from repro.topology.generators import multi_cluster_field
from repro.topology.graph import UnitDiskGraph
from repro.topology.placement import uniform_rect_placement
from repro.types import NodeRole
from tests.cluster_reference import assert_same_structure, reference_extraction


def lossless_network(placement, seed=0):
    return build_network(
        placement, NetworkConfig(loss_probability=0.0, seed=seed)
    )


def formed(network, config):
    """``run_formation``'s layout, read NID-keyed."""
    return run_formation(network, config).cluster_layout()


class TestFormationConfig:
    def test_iteration_duration(self):
        cfg = FormationConfig(thop=0.5, iterations=2)
        assert cfg.iteration_duration == 3.0
        assert cfg.total_duration() == 6.5

    def test_thop_must_exceed_medium_delay(self, rng):
        placement = multi_cluster_field(2, 5, 100.0, rng)
        network = build_network(
            placement, NetworkConfig(loss_probability=0.0, max_delay=0.6)
        )
        with pytest.raises(ClusteringError):
            run_formation(network, FormationConfig(thop=0.5))


class TestRoundSynchrony:
    """``backoff_fraction * thop + max_delay <= thop``, checked where a
    formation is configured and where one runs."""

    #: The field on which a fraction of 0.9 made the two engines' lossless
    #: layouts differ before the condition was checked.
    FIELD = dict(
        cluster_count=4, members_per_cluster=49, loss_probability=0.0,
        crash_count=3, executions=4, seed=12, formation="protocol",
    )

    def test_scenario_rejects_asynchronous_rounds(self):
        for engine in ("event", "array"):
            with pytest.raises(ExperimentError, match="synchronous"):
                ScenarioConfig(
                    **self.FIELD, engine=engine, formation_backoff_fraction=0.9
                )

    def test_oracle_formation_is_not_judged(self):
        config = dict(self.FIELD, formation="oracle")
        ScenarioConfig(**config, formation_backoff_fraction=0.9)

    def test_run_formation_rejects_asynchronous_rounds(self, rng):
        network = lossless_network(multi_cluster_field(2, 5, 100.0, rng))
        with pytest.raises(ClusteringError, match="synchronous"):
            run_formation(network, FormationConfig(backoff_fraction=0.9))

    def test_default_fraction_keeps_the_engines_identical(self):
        config = ScenarioConfig(**self.FIELD)
        assert config.formation_backoff_fraction == 0.4
        event = run_scenario(config).layout
        array = run_scenario(replace(config, engine="array")).layout
        assert array.mismatches(event) == []


#: The sweep ``run_formation`` is held to the reference extraction on:
#: three field shapes, lossless and lossy, one and three iterations.
SWEEP_FIELDS = {
    "lattice": lambda rng: multi_cluster_field(4, 20, 100.0, rng),
    "corridor": lambda rng: multi_cluster_field(3, 15, 100.0, rng, columns=3),
    "uniform_rect": lambda rng: uniform_rect_placement(80, 400.0, 400.0, rng),
}


class TestMatchesReferenceExtraction:
    """``run_formation`` packs the protocols' converged state into arrays
    and converts it with the array engine's conversion; the result equals
    the structure read off the protocols directly
    (``tests/cluster_reference.py``), every local view included."""

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5])
    @pytest.mark.parametrize("iterations", [1, 3])
    @pytest.mark.parametrize("field", sorted(SWEEP_FIELDS))
    def test_sweep(self, field, iterations, p):
        for seed in range(12):
            placement = SWEEP_FIELDS[field](np.random.default_rng(seed))
            network = build_network(
                placement, NetworkConfig(loss_probability=p, seed=seed)
            )
            layout = run_formation(
                network, FormationConfig(iterations=iterations)
            )
            protocols = {
                nid: next(
                    proto for proto in node.protocols
                    if isinstance(proto, FormationProtocol)
                )
                for nid, node in network.nodes.items()
            }
            graph = UnitDiskGraph(placement, 100.0)
            assert_same_structure(
                layout.cluster_layout(graph), reference_extraction(protocols)
            )


class TestPerfectLinkConvergence:
    def test_matches_oracle_partition(self, rng):
        placement = multi_cluster_field(4, 20, 100.0, rng)
        graph = UnitDiskGraph(placement, 100.0)
        oracle = build_clusters(graph)
        network = lossless_network(placement)
        layout = formed(network, FormationConfig(thop=0.5, iterations=3))
        assert layout.heads == oracle.heads
        for head in layout.heads:
            assert layout.clusters[head].members == oracle.clusters[head].members

    def test_everyone_marked(self, rng):
        placement = uniform_rect_placement(80, 400.0, 400.0, rng)
        network = lossless_network(placement)
        layout = formed(network, FormationConfig(thop=0.5, iterations=3))
        graph = UnitDiskGraph(placement, 100.0)
        from repro.topology.analysis import isolated_nodes

        assert set(layout.unclustered) <= set(isolated_nodes(graph))

    def test_gateways_assigned_where_clusters_meet(self, rng):
        placement = multi_cluster_field(2, 25, 100.0, rng)
        network = lossless_network(placement)
        layout = formed(network, FormationConfig(thop=0.5, iterations=3))
        assert len(layout.heads) == 2
        assert layout.boundaries, "adjacent clusters should get a boundary"
        for boundary in layout.boundaries.values():
            graph = UnitDiskGraph(placement, 100.0)
            for forwarder in boundary.all_forwarders:
                assert graph.are_neighbors(forwarder, boundary.peer)

    def test_deputies_announced(self, rng):
        placement = multi_cluster_field(2, 20, 100.0, rng)
        network = lossless_network(placement)
        layout = formed(
            network, FormationConfig(thop=0.5, iterations=2, deputy_count=2)
        )
        for cluster in layout.clusters.values():
            if cluster.size > 2:
                assert len(cluster.deputies) == 2


class TestLossyFormation:
    def test_f3_holds_under_loss(self, rng):
        # Whatever the losses, every node sits in at most one cluster.
        placement = uniform_rect_placement(120, 500.0, 500.0, rng)
        network = build_network(
            placement, NetworkConfig(loss_probability=0.3, seed=9)
        )
        layout = formed(network, FormationConfig(thop=0.5, iterations=4))
        seen = [m for c in layout.clusters.values() for m in c.members]
        assert len(seen) == len(set(seen))
        for nid in layout.clustered_nodes():
            assert layout.role_of(nid) is not NodeRole.UNMARKED

    def test_more_iterations_cover_more_nodes(self, rng):
        placement = uniform_rect_placement(120, 500.0, 500.0, rng)

        def coverage(iterations):
            network = build_network(
                placement, NetworkConfig(loss_probability=0.35, seed=4)
            )
            layout = formed(
                network, FormationConfig(thop=0.5, iterations=iterations)
            )
            return len(layout.clustered_nodes())

        assert coverage(5) >= coverage(1)

    def test_adjacent_head_conflicts_resolved(self, rng):
        # Under heavy loss two neighbors can both declare; RCC resignation
        # must leave no two adjacent heads by the end.
        placement = uniform_rect_placement(100, 400.0, 400.0, rng)
        graph = UnitDiskGraph(placement, 100.0)
        network = build_network(
            placement, NetworkConfig(loss_probability=0.4, seed=78)
        )
        layout = formed(network, FormationConfig(thop=0.5, iterations=8))
        heads = list(layout.heads)
        for i, a in enumerate(heads):
            for b in heads[i + 1:]:
                assert not graph.are_neighbors(a, b), (
                    f"adjacent heads {a}, {b} survived RCC"
                )


class TestExtraction:
    def test_extract_before_run_is_all_unclustered(self, rng):
        placement = multi_cluster_field(2, 10, 100.0, rng)
        network = lossless_network(placement)
        cfg = FormationConfig()
        protocols = install_formation(network, cfg)
        layout = formation_array_layout(
            pack_formation_state(network, protocols, cfg)
        ).cluster_layout()
        assert len(layout.clusters) == 0
        assert len(layout.unclustered) == len(placement)
