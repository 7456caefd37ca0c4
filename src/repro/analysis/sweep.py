"""Parameter sweeps producing figure-shaped series.

Every figure in the paper is a family of curves: a measure evaluated over
``p`` in [0.05, 0.5] for ``N`` in {50, 75, 100}.  :func:`sweep_measure`
produces exactly that shape for any measure callable.

The grid is evaluated serially in N-major/p-minor order, so stateful
measures always see the same call order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Tuple

from repro.errors import AnalysisError

#: The paper's p-axis: 0.05 to 0.50 in steps of 0.05.
PAPER_P_GRID: Tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(1, 11))

#: The paper's cluster populations.
PAPER_N_VALUES: Tuple[int, ...] = (50, 75, 100)


@dataclass(frozen=True)
class MeasureSeries:
    """One reproduced figure: x grid plus one curve per N."""

    name: str
    p_values: Tuple[float, ...]
    curves: Dict[int, Tuple[float, ...]] = field(default_factory=dict)

    def value_at(self, n: int, p: float) -> float:
        """The measured value at (N, p); raises if not on the grid."""
        try:
            index = self.p_values.index(p)
        except ValueError:
            raise AnalysisError(f"p={p} is not on the sweep grid") from None
        try:
            return self.curves[n][index]
        except KeyError:
            raise AnalysisError(f"N={n} is not in the sweep") from None

    def as_rows(self) -> list[list[float]]:
        """Rows of [p, curve_N1, curve_N2, ...] for table rendering."""
        ns = sorted(self.curves)
        return [
            [p, *(self.curves[n][i] for n in ns)]
            for i, p in enumerate(self.p_values)
        ]


def sweep_measure(
    name: str,
    measure: Callable[[int, float], float],
    p_values: Sequence[float] = PAPER_P_GRID,
    n_values: Sequence[int] = PAPER_N_VALUES,
) -> MeasureSeries:
    """Evaluate ``measure(n, p)`` over the grid; returns the series."""
    if not p_values:
        raise AnalysisError("p_values must be non-empty")
    if not n_values:
        raise AnalysisError("n_values must be non-empty")
    curves = {
        int(n): tuple(float(measure(int(n), float(p))) for p in p_values)
        for n in n_values
    }
    return MeasureSeries(name=name, p_values=tuple(p_values), curves=curves)
