"""Tests for the DCH reachability model and sweep tooling."""

import numpy as np
import pytest

from repro.analysis.reachability import (
    dch_reachability_failure,
    triple_overlap_fraction,
)
from repro.analysis.sweep import (
    PAPER_N_VALUES,
    PAPER_P_GRID,
    MeasureSeries,
    sweep_measure,
)
from repro.errors import AnalysisError


class TestTripleOverlap:
    def test_matches_monte_carlo_area(self):
        # Grid quadrature vs MC integration of the same region.
        d_dch, d_v = 60.0, 100.0
        g = triple_overlap_fraction(d_dch, d_v, resolution=800)
        rng = np.random.default_rng(1)
        n = 200_000
        r = 100.0 * np.sqrt(rng.uniform(size=n))
        theta = rng.uniform(0, 2 * np.pi, size=n)
        xs, ys = r * np.cos(theta), r * np.sin(theta)
        inside = (
            ((xs - d_dch) ** 2 + ys**2 <= 1e4)
            & ((xs + d_v) ** 2 + ys**2 <= 1e4)
        )
        mc = inside.mean()
        assert g == pytest.approx(mc, abs=0.01)

    def test_grows_as_dch_centers(self):
        far = triple_overlap_fraction(90.0, 100.0)
        near = triple_overlap_fraction(20.0, 100.0)
        assert near > far

    def test_validation(self):
        with pytest.raises(AnalysisError):
            triple_overlap_fraction(150.0, 100.0)


class TestDchReachability:
    def test_in_range_member_is_never_a_problem(self):
        assert dch_reachability_failure(50, 0.3, dch_distance=20.0,
                                        member_distance=70.0) == 0.0

    def test_paper_qualitative_claim(self):
        # "unless the node population density is low and the DCH's
        # distance from the original CH is big, with high probability a
        # DCH will be able to hear from an out-of-range member".
        good = dch_reachability_failure(100, 0.1, dch_distance=30.0)
        bad = dch_reachability_failure(20, 0.4, dch_distance=90.0)
        assert good < 1e-3
        assert bad > 0.1

    def test_monotone_in_density(self):
        values = [
            dch_reachability_failure(n, 0.2, dch_distance=50.0)
            for n in (10, 25, 50, 100)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_in_loss(self):
        values = [
            dch_reachability_failure(50, p, dch_distance=50.0)
            for p in (0.05, 0.2, 0.4)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestSweep:
    def test_paper_grid_shape(self):
        assert PAPER_P_GRID[0] == 0.05 and PAPER_P_GRID[-1] == 0.5
        assert len(PAPER_P_GRID) == 10
        assert PAPER_N_VALUES == (50, 75, 100)

    def test_sweep_measure(self):
        series = sweep_measure("test", lambda n, p: n * p)
        assert series.curves[50][PAPER_P_GRID.index(0.1)] == pytest.approx(5.0)
        assert len(series.curves) == 3

    def test_as_rows(self):
        series = sweep_measure(
            "t", lambda n, p: float(n), p_values=[0.1, 0.2], n_values=[2, 3]
        )
        rows = series.as_rows()
        assert rows == [[0.1, 2.0, 3.0], [0.2, 2.0, 3.0]]

    def test_empty_grids_rejected(self):
        with pytest.raises(AnalysisError):
            sweep_measure("t", lambda n, p: 0.0, p_values=[])
