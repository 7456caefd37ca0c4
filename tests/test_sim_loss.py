"""Tests for loss models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.loss import (
    BernoulliLoss,
    DistanceDependentLoss,
    GilbertElliottLoss,
    PerfectLinks,
)


@pytest.fixture
def gen():
    return np.random.default_rng(0)


class TestPerfectLinks:
    def test_never_loses(self, gen):
        model = PerfectLinks()
        assert not any(
            model.is_lost(0, 1, 50.0, 0.0, gen) for _ in range(100)
        )


class TestBernoulliLoss:
    def test_empirical_rate(self, gen):
        model = BernoulliLoss(0.3)
        losses = sum(model.is_lost(0, 1, 10.0, 0.0, gen) for _ in range(20_000))
        assert 0.28 <= losses / 20_000 <= 0.32

    def test_degenerate_probabilities(self, gen):
        assert not BernoulliLoss(0.0).is_lost(0, 1, 1.0, 0.0, gen)
        assert BernoulliLoss(1.0).is_lost(0, 1, 1.0, 0.0, gen)

    def test_invalid_probability(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            BernoulliLoss(1.5)


class TestGilbertElliott:
    def test_stationary_rate_formula(self):
        model = GilbertElliottLoss(p_good=0.0, p_bad=1.0, p_gb=0.1, p_bg=0.3)
        assert model.stationary_loss_rate == pytest.approx(0.25)

    def test_empirical_matches_stationary(self, gen):
        model = GilbertElliottLoss(p_good=0.02, p_bad=0.7, p_gb=0.05, p_bg=0.25)
        n = 60_000
        losses = sum(model.is_lost(0, 1, 10.0, 0.0, gen) for _ in range(n))
        assert losses / n == pytest.approx(model.stationary_loss_rate, abs=0.02)

    def test_burstiness(self, gen):
        # Consecutive losses should be positively correlated.
        model = GilbertElliottLoss(p_good=0.01, p_bad=0.95, p_gb=0.02, p_bg=0.1)
        outcomes = [model.is_lost(0, 1, 10.0, 0.0, gen) for _ in range(40_000)]
        after_loss = [
            b for a, b in zip(outcomes, outcomes[1:]) if a
        ]
        after_ok = [b for a, b in zip(outcomes, outcomes[1:]) if not a]
        assert sum(after_loss) / len(after_loss) > sum(after_ok) / len(after_ok) + 0.2

    def test_per_link_state_isolated(self, gen):
        model = GilbertElliottLoss(p_good=0.0, p_bad=1.0, p_gb=1.0, p_bg=0.0)
        # Link (0,1) goes bad immediately and stays bad.
        model.is_lost(0, 1, 1.0, 0.0, gen)
        assert model.is_lost(0, 1, 1.0, 0.0, gen)
        # The reverse link and every other link keep their own chain.
        assert model._state == {(0, 1): GilbertElliottLoss.BAD}

    def test_non_ergodic_rejected(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_gb=0.0, p_bg=0.0)


class TestDistanceDependent:
    def test_monotone_in_distance(self):
        model = DistanceDependentLoss(100.0, p_near=0.05, p_far=0.5)
        probs = [model.loss_probability(d) for d in (0, 25, 50, 75, 100)]
        assert all(a <= b for a, b in zip(probs, probs[1:]))
        assert probs[0] == pytest.approx(0.05)
        assert probs[-1] == pytest.approx(0.5)

    def test_clipping_beyond_range(self):
        model = DistanceDependentLoss(100.0, p_near=0.1, p_far=0.9)
        assert model.loss_probability(500.0) == pytest.approx(0.9)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            DistanceDependentLoss(0.0)


class TestBoundedAdversary:
    def test_stops_dropping_at_budget(self, gen):
        from repro.sim.loss import BoundedAdversaryLoss

        model = BoundedAdversaryLoss(p=1.0, budget=3)
        outcomes = [model.is_lost(0, 1, 50.0, 0.0, gen) for _ in range(10)]
        assert outcomes == [True] * 3 + [False] * 7
        assert model.dropped == 3

    def test_zero_budget_is_perfect(self, gen):
        from repro.sim.loss import BoundedAdversaryLoss

        model = BoundedAdversaryLoss(p=0.9, budget=0)
        assert not any(
            model.is_lost(0, 1, 50.0, 0.0, gen) for _ in range(100)
        )

    def test_negative_budget_rejected(self):
        from repro.sim.loss import BoundedAdversaryLoss

        with pytest.raises(ValueError):
            BoundedAdversaryLoss(p=0.5, budget=-1)


class TestBuildLossModel:
    def test_kinds_construct(self):
        from repro.sim.loss import LOSS_KINDS, build_loss_model

        for kind in LOSS_KINDS:
            model = build_loss_model(kind, loss_probability=0.2)
            assert hasattr(model, "is_lost")

    def test_bounded_params(self):
        from repro.sim.loss import build_loss_model

        model = build_loss_model(
            "bounded", (("p", 0.5), ("budget", 2.0))
        )
        assert model.p == 0.5 and model.budget == 2

    def test_unknown_kind_rejected(self):
        from repro.sim.loss import build_loss_model

        with pytest.raises(ConfigurationError):
            build_loss_model("quantum")

    def test_unused_params_rejected(self):
        from repro.sim.loss import build_loss_model

        with pytest.raises(ConfigurationError):
            build_loss_model("perfect", (("p", 0.5),))
