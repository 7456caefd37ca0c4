"""Plain-text table rendering for experiment and benchmark output.

The benchmark harness prints the same rows/series the paper's figures show;
these helpers keep that output aligned and diff-friendly without pulling in
a plotting dependency.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def format_cell(value: object, precision: int = 4) -> str:
    """One value as a table cell: floats to ``precision`` significant
    digits, scientific when tiny or huge."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        magnitude = abs(value)
        if magnitude < 1e-3 or magnitude >= 1e6:
            return f"{value:.{precision}e}"
        return f"{value:.{precision}g}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 4,
    title: str | None = None,
) -> str:
    """Render rows as an aligned monospace table.

    Floats are shown in scientific notation when tiny/huge, which matters
    here because the reproduced measures reach 1e-120.
    """
    cells = [[format_cell(c, precision) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_series_table(
    x_name: str,
    x_values: Sequence[float],
    series: Mapping[str, Sequence[float]],
    precision: int = 4,
    title: str | None = None,
) -> str:
    """Render one table with an x column and one column per named series.

    This is the shape of every figure in the paper: x is the message-loss
    probability ``p``, and each series is a cluster population ``N``.
    """
    for name, ys in series.items():
        if len(ys) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(ys)} points, expected {len(x_values)}"
            )
    headers = [x_name, *series.keys()]
    rows = [
        [x, *(series[name][i] for name in series)] for i, x in enumerate(x_values)
    ]
    return render_table(headers, rows, precision=precision, title=title)
