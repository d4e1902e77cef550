"""Plain-text and Markdown table rendering for experiment reports.

The experiment harness produces rows of measurements keyed by size, protocol
and statistic; these helpers turn them into aligned text tables (for the CLI)
and GitHub-flavoured Markdown tables (for EXPERIMENTS.md).  Keeping rendering
here means the experiment modules only deal with numbers.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "format_markdown_table", "format_float"]


def format_float(value, *, precision: int = 2) -> str:
    """Render a number compactly; passes strings and None through sensibly."""
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "nan"
    if value in (float("inf"), float("-inf")):
        return "inf" if value > 0 else "-inf"
    if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
        return f"{value:.3g}"
    return f"{value:.{precision}f}"


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], *, title: str = ""
) -> str:
    """Render an aligned plain-text table."""
    header_cells = [str(h) for h in headers]
    body = [[format_float(cell) for cell in row] for row in rows]
    widths = [len(h) for h in header_cells]
    for row in body:
        if len(row) != len(header_cells):
            raise ValueError("row length does not match the number of headers")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(header_cells))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render_row(row) for row in body)
    return "\n".join(lines)


def format_markdown_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render a GitHub-flavoured Markdown table."""
    header_cells = [str(h) for h in headers]
    body = [[format_float(cell) for cell in row] for row in rows]
    for row in body:
        if len(row) != len(header_cells):
            raise ValueError("row length does not match the number of headers")
    lines = [
        "| " + " | ".join(header_cells) + " |",
        "|" + "|".join("---" for _ in header_cells) + "|",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in body)
    return "\n".join(lines)
