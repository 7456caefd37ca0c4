"""Monte Carlo twins vs closed forms."""

import numpy as np
import pytest

from repro.analysis.ch_false_detection import p_false_detection_on_ch
from repro.analysis.confidence import wilson_interval
from repro.analysis.false_detection import p_false_detection
from repro.analysis.incompleteness import p_incompleteness
from repro.analysis.montecarlo import (
    DEFAULT_MC_CHUNKS,
    McEstimate,
    chunk_sizes,
    mc_false_detection,
    mc_false_detection_on_ch,
    mc_incompleteness,
    merge_estimates,
    spawn_seed_sequences,
)
from repro.errors import AnalysisError, ConfigurationError


@pytest.fixture
def mc_rng():
    return np.random.default_rng(2024)


class TestWilson:
    def test_basic_interval(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high

    def test_zero_successes_has_positive_width(self):
        low, high = wilson_interval(0, 1000)
        assert low == 0.0
        assert high > 0.0

    def test_narrower_with_more_trials(self):
        w1 = wilson_interval(10, 100)
        w2 = wilson_interval(100, 1000)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])

    def test_validation(self):
        with pytest.raises(AnalysisError):
            wilson_interval(5, 0)
        with pytest.raises(AnalysisError):
            wilson_interval(11, 10)
        with pytest.raises(AnalysisError):
            wilson_interval(1, 10, confidence=0.42)


class TestMcFalseDetection:
    @pytest.mark.parametrize("n,p", [(50, 0.5), (50, 0.35), (75, 0.5)])
    def test_agrees_with_closed_form(self, mc_rng, n, p):
        estimate = mc_false_detection(n, p, trials=150_000, rng=mc_rng)
        assert estimate.contains(p_false_detection(n, p))

    def test_prefactor_is_p_squared(self, mc_rng):
        estimate = mc_false_detection(50, 0.3, trials=10, rng=mc_rng)
        assert estimate.prefactor == pytest.approx(0.09)

    def test_interior_position(self, mc_rng):
        estimate = mc_false_detection(
            50, 0.5, trials=150_000, rng=mc_rng, distance=40.0
        )
        assert estimate.contains(p_false_detection(50, 0.5, distance=40.0))

    def test_distance_validation(self, mc_rng):
        with pytest.raises(AnalysisError):
            mc_false_detection(50, 0.5, 10, mc_rng, distance=150.0)


class TestMcChFalseDetection:
    def test_agrees_with_closed_form(self, mc_rng):
        # Conditional part (p(2-p))^(N-2) is ~1e-6 at N=20, p=0.5:
        # measurable with 2e6 trials would be needed; use N=10 where the
        # conditional is ~6e-2.
        n, p = 10, 0.5
        estimate = mc_false_detection_on_ch(n, p, trials=200_000, rng=mc_rng)
        assert estimate.contains(p_false_detection_on_ch(n, p))

    def test_offset_dch_agrees(self, mc_rng):
        n, p, d = 10, 0.5, 70.0
        estimate = mc_false_detection_on_ch(
            n, p, trials=200_000, rng=mc_rng, dch_distance=d
        )
        assert estimate.contains(
            p_false_detection_on_ch(n, p, dch_distance=d)
        )


class TestMcIncompleteness:
    @pytest.mark.parametrize("n,p", [(50, 0.5), (50, 0.3), (100, 0.5)])
    def test_agrees_with_closed_form(self, mc_rng, n, p):
        estimate = mc_incompleteness(n, p, trials=150_000, rng=mc_rng)
        assert estimate.contains(p_incompleteness(n, p))

    def test_conditional_mean_exposed(self, mc_rng):
        estimate = mc_incompleteness(50, 0.5, trials=1000, rng=mc_rng)
        assert estimate.conditional_mean == pytest.approx(
            estimate.conditional_successes / 1000
        )
        assert estimate.estimate == pytest.approx(
            0.5 * estimate.conditional_mean
        )


class TestChunking:
    def test_default_chunk_count_is_pinned(self):
        # The chunk count is part of every MC campaign key.
        assert DEFAULT_MC_CHUNKS == 8

    def test_chunk_sizes_balanced(self):
        sizes = chunk_sizes(10, 3)
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        # More chunks than items: empty chunks are dropped, not emitted.
        assert all(s > 0 for s in chunk_sizes(2, 8))
        # Purely a function of (total, chunks).
        assert chunk_sizes(1000, 8) == chunk_sizes(1000, 8)

    def test_spawn_seed_sequences_deterministic_and_distinct(self):
        first = [np.random.default_rng(s).random() for s in spawn_seed_sequences(5, 4)]
        second = [np.random.default_rng(s).random() for s in spawn_seed_sequences(5, 4)]
        assert first == second
        assert len(set(first)) == 4  # children draw distinct streams

    def test_merge_estimates_pools_counts(self):
        parts = [
            McEstimate(estimate=0.5, prefactor=1.0,
                       conditional_successes=5, trials=10),
            McEstimate(estimate=0.25, prefactor=1.0,
                       conditional_successes=5, trials=20),
        ]
        merged = merge_estimates(parts)
        assert merged.trials == 30
        assert merged.conditional_successes == 10
        assert merged.estimate == pytest.approx(10 / 30)

    def test_merge_rejects_mismatched_prefactors(self):
        parts = [
            McEstimate(estimate=0.5, prefactor=1.0,
                       conditional_successes=1, trials=2),
            McEstimate(estimate=0.5, prefactor=2.0,
                       conditional_successes=1, trials=2),
        ]
        with pytest.raises(AnalysisError):
            merge_estimates(parts)

    def test_merge_rejects_empty_sequence(self):
        with pytest.raises(ConfigurationError):
            merge_estimates([])

    def test_merge_rejects_mismatched_parameters(self):
        # Chunks from different (n, p) experiments must never be pooled.
        parts = [
            McEstimate(estimate=0.5, prefactor=1.0,
                       conditional_successes=1, trials=2, n=40, p=0.4),
            McEstimate(estimate=0.5, prefactor=1.0,
                       conditional_successes=1, trials=2, n=41, p=0.4),
        ]
        with pytest.raises(ConfigurationError):
            merge_estimates(parts)

    def test_merge_carries_parameters(self):
        parts = [
            McEstimate(estimate=0.5, prefactor=1.0,
                       conditional_successes=1, trials=2, n=40, p=0.4),
            McEstimate(estimate=0.5, prefactor=1.0,
                       conditional_successes=1, trials=2, n=40, p=0.4),
        ]
        merged = merge_estimates(parts)
        assert merged.n == 40
        assert merged.p == 0.4
