"""Utility layer: geometry, numerics, randomness, rendering, validation."""

from repro.util.geometry import (
    Vec2,
    disk_area,
    lens_area,
    lens_area_integral,
    sample_in_disk,
)
from repro.util.logmath import (
    log_binomial,
    log_binomial_pmf,
    logsumexp,
    stable_binomial_sum,
)
from repro.util.rng import RngFactory, derive_seed
from repro.util.tables import render_series_table, render_table
from repro.util.validation import (
    check_positive,
    check_probability,
    check_range,
)

__all__ = [
    "Vec2",
    "disk_area",
    "lens_area",
    "lens_area_integral",
    "sample_in_disk",
    "log_binomial",
    "log_binomial_pmf",
    "logsumexp",
    "stable_binomial_sum",
    "RngFactory",
    "derive_seed",
    "render_series_table",
    "render_table",
    "check_positive",
    "check_probability",
    "check_range",
]
