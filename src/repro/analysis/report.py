"""Plain-text table rendering for the CLI and the benchmarks.

The benchmark harness prints the same rows/series the paper's figures
report; these helpers keep that output consistent and diff-friendly.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_cell(value: object, precision: int = 3) -> str:
    """Human-readable cell: floats rounded, everything else ``str``-ed."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 3,
) -> str:
    """Render an aligned ASCII table with a header rule."""
    str_rows = [[format_cell(v, precision) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells, expected {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def format_percent(fraction: float, precision: int = 1) -> str:
    """``0.416 -> '41.6%'``."""
    return f"{100.0 * fraction:.{precision}f}%"


def format_delta_percent(fraction: float, precision: int = 1) -> str:
    """Signed percent change: ``-0.17 -> '-17.0%'``."""
    return f"{100.0 * fraction:+.{precision}f}%"


def paper_vs_measured(
    claims: Iterable[tuple[str, str, str]],
) -> str:
    """Table of (claim, paper value, measured value) triplets."""
    return render_table(
        ["claim", "paper", "measured"],
        [list(c) for c in claims],
    )
