"""Regeneration of the paper's Figures 2, 5, 6, and 7 (``repro figures``).

Figures 5-7 evaluate the Section 5 measures over the paper's exact grid
(p = 0.05..0.50 step 0.05; N in {50, 75, 100}; R = 100 m; worst-case
member position) as :class:`~repro.analysis.sweep.MeasureSeries`; Figure 2
is the DCH reachability study Section 4.2 summarizes without printing.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.ch_false_detection import p_false_detection_on_ch
from repro.analysis.false_detection import p_false_detection
from repro.analysis.incompleteness import p_incompleteness
from repro.analysis.reachability import dch_reachability_failure
from repro.analysis.sweep import MeasureSeries, sweep_measure
from repro.util.tables import render_series_table, render_table

#: Figure 2's study grid: the DCH's distance from the CH (m) by cluster
#: population, at message-loss probability ``FIG2_P``.
FIG2_DISTANCES: Tuple[float, ...] = (20.0, 40.0, 60.0, 80.0, 95.0)
FIG2_N_VALUES: Tuple[int, ...] = (25, 50, 75, 100)
FIG2_P = 0.1


def figure2_dch_reachability() -> Dict[float, Tuple[float, ...]]:
    """Figure 2: distance -> P(DCH unaware of an out-of-range member),
    one value per N in :data:`FIG2_N_VALUES`."""
    return {
        d: tuple(
            dch_reachability_failure(n, FIG2_P, dch_distance=d, resolution=400)
            for n in FIG2_N_VALUES
        )
        for d in FIG2_DISTANCES
    }


def render_figure2(study: Dict[float, Tuple[float, ...]]) -> str:
    """The Figure 2 study as a table (one row per DCH distance)."""
    return render_table(
        ["dch_distance", *(f"N={n}" for n in FIG2_N_VALUES)],
        [[d, *values] for d, values in study.items()],
        title=f"Figure 2: P(DCH unaware of out-of-range member), p={FIG2_P}",
    )


def figure5_false_detection() -> MeasureSeries:
    """Figure 5: P^(False detection) vs p for N in {50, 75, 100}."""
    return sweep_measure("fig5:p_false_detection", p_false_detection)


def figure6_false_detection_on_ch() -> MeasureSeries:
    """Figure 6: P(False detection on CH) vs p for N in {50, 75, 100}."""
    return sweep_measure(
        "fig6:p_false_detection_on_ch", p_false_detection_on_ch
    )


def figure7_incompleteness() -> MeasureSeries:
    """Figure 7: P^(Incompleteness) vs p for N in {50, 75, 100}."""
    return sweep_measure("fig7:p_incompleteness", p_incompleteness)


def render_figure(series: MeasureSeries, title: str | None = None) -> str:
    """The figure as an aligned text table (one column per N curve)."""
    ns = sorted(series.curves)
    return render_series_table(
        "p",
        list(series.p_values),
        {f"N={n}": list(series.curves[n]) for n in ns},
        title=title or series.name,
    )
