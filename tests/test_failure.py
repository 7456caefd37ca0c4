"""Tests for failure injection."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.failure.faultload import CrashEvent, Faultload, make_random_crashes
from repro.failure.injection import FailureInjector
from repro.fds.config import FdsConfig
from repro.sim.network import NetworkConfig, build_network
from repro.util.geometry import Vec2


def small_network():
    positions = {i: Vec2(i * 10.0, 0.0) for i in range(6)}
    return build_network(positions, NetworkConfig(loss_probability=0.0))


class TestInjector:
    def test_crash_happens_at_time(self):
        network = small_network()
        config = FdsConfig(phi=10.0, thop=0.5)
        injector = FailureInjector(network, config)
        injector.schedule_crash(3, 7.0)
        network.sim.run_until(6.9)
        assert network.nodes[3].is_operational
        network.sim.run_until(7.1)
        assert not network.nodes[3].is_operational

    def test_mid_execution_crash_rejected(self):
        # The paper assumes no crashes during an FDS execution.
        network = small_network()
        config = FdsConfig(phi=10.0, thop=0.5)
        injector = FailureInjector(network, config)
        with pytest.raises(ConfigurationError, match="execution window"):
            injector.schedule_crash(3, 0.5)

    def test_align_to_gap(self):
        network = small_network()
        config = FdsConfig(phi=10.0, thop=0.5)
        injector = FailureInjector(network, config)
        window = config.execution_duration()
        aligned = injector.align_to_gap(0.5)
        assert aligned == pytest.approx(window)
        assert not injector.in_execution_window(aligned)
        # Already in a gap: unchanged.
        assert injector.align_to_gap(5.0) == 5.0

    def test_crash_before_execution(self):
        network = small_network()
        config = FdsConfig(phi=10.0, thop=0.5)
        injector = FailureInjector(network, config)
        event = injector.crash_before_execution(2, execution=3)
        assert event.time == pytest.approx(29.0)
        assert not injector.in_execution_window(event.time)

    def test_crash_before_execution_zero_rejected_at_origin(self):
        network = small_network()
        injector = FailureInjector(network, FdsConfig(phi=10.0, thop=0.5))
        with pytest.raises(ConfigurationError):
            injector.crash_before_execution(2, execution=0)

    def test_past_crash_rejected(self):
        network = small_network()
        network.sim.run_until(50.0)
        injector = FailureInjector(network, FdsConfig(phi=10.0, thop=0.5))
        with pytest.raises(ConfigurationError):
            injector.schedule_crash(1, 5.0)


class TestFaultload:
    def test_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            Faultload((CrashEvent(1, 10.0), CrashEvent(2, 5.0)))

    def test_fail_stop_single_crash_per_node(self):
        with pytest.raises(ConfigurationError):
            Faultload((CrashEvent(1, 5.0), CrashEvent(1, 10.0)))

    def test_inject(self):
        network = small_network()
        config = FdsConfig(phi=10.0, thop=0.5)
        injector = FailureInjector(network, config)
        fl = Faultload((CrashEvent(1, 6.0), CrashEvent(2, 16.0)))
        fl.inject(injector)
        network.sim.run_until(20.0)
        assert network.crashed_ids() == (1, 2)

    def test_make_random_crashes_properties(self):
        config = FdsConfig(phi=10.0, thop=0.5)
        rng = np.random.default_rng(0)
        fl = make_random_crashes(
            list(range(20)), 5, config, rng,
            first_execution=1, last_execution=3,
        )
        assert len(fl) == 5
        assert len(set(fl.node_ids())) == 5
        injector = FailureInjector(small_network(), config)
        for event in fl.events:
            assert not injector.in_execution_window(event.time)

    def test_make_random_crashes_validation(self):
        config = FdsConfig(phi=10.0, thop=0.5)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            make_random_crashes([1, 2], 3, config, rng)
        with pytest.raises(ConfigurationError):
            make_random_crashes([1, 2], 1, config, rng, first_execution=0)
