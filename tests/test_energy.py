"""Tests for the energy model and waiting-period policy."""

import pytest

from repro.energy.model import (
    CAPACITY,
    HARVEST_RATE,
    RX_COST,
    TX_COST,
    EnergyModel,
)
from repro.energy.policy import ENERGY_FLOOR, WAIT_MODULUS, WaitingPeriodPolicy
from repro.errors import ConfigurationError


class TestEnergyModel:
    def test_registration_and_duplicate(self):
        model = EnergyModel()
        model.register(1, now=0.0)
        with pytest.raises(ConfigurationError):
            model.register(1, now=0.0)
        with pytest.raises(ConfigurationError):
            model.remaining_fraction(2, now=0.0)

    def test_tx_rx_costs(self):
        model = EnergyModel()
        model.register(1, now=0.0)
        model.on_transmit(1, now=0.0)
        model.on_receive(1, now=0.0)
        assert model.remaining_fraction(1, now=0.0) == pytest.approx(
            (CAPACITY - TX_COST - RX_COST) / CAPACITY
        )

    def test_harvest_restores_capped(self):
        model = EnergyModel()
        model.register(1, now=0.0)
        for _ in range(10):
            model.on_transmit(1, now=0.0)
        assert model.remaining_fraction(1, now=5.0) == pytest.approx(
            (CAPACITY - 10 * TX_COST + 5.0 * HARVEST_RATE) / CAPACITY
        )
        assert model.remaining_fraction(1, now=1e6) == 1.0  # capped

    def test_level_floor_at_zero(self):
        model = EnergyModel()
        model.register(1, now=0.0)
        for _ in range(int(CAPACITY / TX_COST) + 5):
            model.on_transmit(1, now=0.0)
        assert model.remaining_fraction(1, now=0.0) == 0.0

    def test_initial_level_validation(self):
        model = EnergyModel()
        model.register(1, now=0.0)
        assert model.remaining_fraction(1, now=0.0) == 1.0
        assert model.totals()["mean_level"] == CAPACITY

    def test_totals_and_spread(self):
        model = EnergyModel()
        model.register(1, now=0.0)
        model.register(2, now=0.0)
        model.on_transmit(1, now=0.0)
        totals = model.totals()
        assert totals["tx_total"] == 1.0
        assert model.spread() == pytest.approx(TX_COST)

    def test_empty_model_stats(self):
        model = EnergyModel()
        assert model.spread() == 0.0
        assert model.totals()["mean_level"] == 0.0


class TestWaitingPeriodPolicy:
    def test_unique_per_nid(self):
        policy = WaitingPeriodPolicy(slot=0.01)
        waits = {policy.waiting_period(nid, 1.0) for nid in range(WAIT_MODULUS)}
        assert len(waits) == WAIT_MODULUS

    def test_inverse_in_energy(self):
        policy = WaitingPeriodPolicy(slot=0.01)
        full = policy.waiting_period(5, 1.0)
        half = policy.waiting_period(5, 0.5)
        assert half == pytest.approx(2 * full)

    def test_energy_floor_bounds_delay(self):
        policy = WaitingPeriodPolicy(slot=0.01)
        drained = policy.waiting_period(5, 0.0)
        assert drained == pytest.approx(policy.waiting_period(5, ENERGY_FLOOR))

    def test_max_period(self):
        policy = WaitingPeriodPolicy(slot=0.01)
        for nid in range(2 * WAIT_MODULUS):
            assert policy.waiting_period(nid, 0.0) <= policy.max_period()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WaitingPeriodPolicy(slot=0.0)
        with pytest.raises(ConfigurationError):
            WaitingPeriodPolicy(slot=0.01).waiting_period(5, 1.5)
