"""ASCII tables and line plots for the experiment harness."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

__all__ = ["engine_rate_line", "format_table", "ascii_plot", "format_comparison"]


def engine_rate_line(sim_events: int, wall_s: float) -> str:
    """Sim-engine throughput: an exact event count over measured wall
    time.  Printed by the CLI, never serialised into an artifact."""
    return (f"  sim engine: {sim_events:,} events in {wall_s:.2f} s wall "
            f"({sim_events / wall_s:,.0f} events/s)")


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Fixed-width ASCII table."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) if _numeric(cell) else cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def ascii_plot(
    series: Dict[str, List[Tuple[float, float]]],
    width: int = 70,
    height: int = 18,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Multi-series ASCII scatter/line plot (one glyph per series)."""
    glyphs = "*o+x#@%&"
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return title
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for glyph, (label, pts) in zip(glyphs, series.items()):
        for x, y in pts:
            col = int((x - x_min) / x_span * (width - 1))
            row = height - 1 - int((y - y_min) / y_span * (height - 1))
            grid[row][col] = glyph
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_max:10.1f} +" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " |" + "".join(row))
    lines.append(f"{y_min:10.1f} +" + "".join(grid[-1]))
    lines.append(" " * 12 + f"{x_min:<10.0f}{xlabel:^{max(0, width - 20)}}{x_max:>10.0f}")
    legend = "   ".join(f"{glyph}={label}" for glyph, label in zip(glyphs, series.keys()))
    lines.append(" " * 12 + legend)
    if ylabel:
        lines.insert(1 if title else 0, f"[y: {ylabel}]")
    return "\n".join(lines)


def format_comparison(rows: Sequence[Tuple[str, float, float]], label_a: str = "paper",
                      label_b: str = "measured", title: str = "") -> str:
    """Side-by-side paper-vs-measured table with relative deviation."""
    table_rows = []
    for name, paper, measured in rows:
        if paper:
            deviation = f"{(measured - paper) / paper * 100:+.0f}%"
        else:
            deviation = "n/a"
        table_rows.append((name, f"{paper:.1f}", f"{measured:.1f}", deviation))
    return format_table(("experiment", label_a, label_b, "dev"), table_rows, title=title)
