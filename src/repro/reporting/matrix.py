"""Pairwise-matrix rendering (Figures 2, 4, 5, 7 and 8)."""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Sequence

from repro.analysis.coverage import OverlapMatrix


def _abbreviate(count: int) -> str:
    """Compact counts the way the paper's matrix cells do (61K etc.)."""
    if count >= 10_000:
        return f"{round(count / 1000)}K"
    if count >= 1_000:
        return f"{count / 1000:.1f}K"
    return str(count)


def render_overlap_matrix(
    matrix: OverlapMatrix,
    rows: Optional[Sequence[str]] = None,
    include_all_column: bool = True,
    title: Optional[str] = None,
) -> str:
    """Render an :class:`OverlapMatrix` in the paper's Figure 2 style.

    Each cell shows the percentage of the column feed covered by the row
    feed over the absolute intersection count.
    """
    row_names = list(rows) if rows is not None else list(matrix.feeds)
    columns = list(row_names)
    if include_all_column:
        columns.append(matrix.ALL)
    width = max(
        8, max((len(name) for name in row_names + columns), default=8) + 1
    )

    lines: List[str] = []
    if title:
        lines.append(title)
    header = " " * width + "".join(c.rjust(width) for c in columns)
    lines.append(header)
    for row in row_names:
        pct_cells: List[str] = []
        abs_cells: List[str] = []
        for column in columns:
            fraction, intersection = matrix.cell(row, column)
            pct_cells.append(f"{round(100 * fraction)}%".rjust(width))
            abs_cells.append(_abbreviate(intersection).rjust(width))
        lines.append(row.ljust(width) + "".join(pct_cells))
        lines.append(" " * width + "".join(abs_cells))
    return "\n".join(lines)


def render_value_matrix(
    values: Mapping[str, Mapping[str, float]],
    labels: Optional[Sequence[str]] = None,
    fmt: Callable[[float], str] = lambda v: f"{v:.2f}",
    title: Optional[str] = None,
) -> str:
    """Render a symmetric value matrix (Figures 7 and 8)."""
    names = list(labels) if labels is not None else list(values)
    width = max(7, max((len(n) for n in names), default=7) + 1)
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" " * width + "".join(n.rjust(width) for n in names))
    for row in names:
        cells: List[str] = []
        for column in names:
            cells.append(fmt(values[row][column]).rjust(width))
        lines.append(row.ljust(width) + "".join(cells))
    return "\n".join(lines)
