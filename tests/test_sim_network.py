"""Tests for network assembly."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.loss import GilbertElliottLoss
from repro.sim.network import Network, NetworkConfig, build_network
from repro.util.geometry import Vec2


class TestNetworkConfig:
    def test_defaults_match_paper(self):
        cfg = NetworkConfig()
        assert cfg.transmission_range == 100.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"transmission_range": 0.0},
            {"loss_probability": 1.5},
            {"max_delay": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            NetworkConfig(**kwargs)


class TestBuildNetwork:
    def test_from_sequence_assigns_ids(self):
        net = build_network([Vec2(0, 0), Vec2(10, 0)])
        assert sorted(net.nodes) == [0, 1]

    def test_from_mapping_preserves_ids(self):
        net = build_network({5: Vec2(0, 0), 9: Vec2(10, 0)})
        assert sorted(net.nodes) == [5, 9]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            build_network({})

    def test_custom_loss_model_wins(self):
        model = GilbertElliottLoss()
        net = build_network([Vec2(0, 0)], loss_model=model)
        assert net.medium.loss_model is model

    def test_unknown_node_lookup(self):
        net = build_network([Vec2(0, 0)])
        with pytest.raises(ConfigurationError):
            net.node(42)

    def test_crash_bookkeeping(self):
        net = build_network([Vec2(0, 0), Vec2(10, 0), Vec2(20, 0)])
        assert net.operational_ids() == (0, 1, 2)
        net.crash(1)
        assert net.operational_ids() == (0, 2)
        assert net.crashed_ids() == (1,)

    def test_determinism_same_seed(self):
        # Two identically seeded networks produce identical delivery
        # outcomes for the same transmission schedule.
        def run(seed):
            net = build_network(
                [Vec2(0, 0), Vec2(50, 0)],
                NetworkConfig(loss_probability=0.5, seed=seed),
            )
            received = []
            net.medium._tables[1] = {int: received.append}
            for i in range(100):
                net.medium.transmit(0, i)
            net.sim.run()
            return received

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_len(self):
        assert len(build_network([Vec2(0, 0)])) == 1
