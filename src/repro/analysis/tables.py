"""Plain-text table formatting for the benchmark harnesses.

Keeping the formatting in one place means every benchmark prints comparable
"paper vs. simulated" rows, which is what EXPERIMENTS.md records.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str | None = None
) -> str:
    """Render rows as a fixed-width text table."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


def format_breakdown(breakdown: dict[str, float], title: str | None = None) -> str:
    """Render a latency breakdown (category -> fraction) sorted by share."""
    lines = [title] if title else []
    for category, share in sorted(breakdown.items(), key=lambda item: -item[1]):
        lines.append(f"  {category:18s} {share * 100:5.1f}%")
    return "\n".join(lines)
