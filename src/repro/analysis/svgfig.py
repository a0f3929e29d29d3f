"""Static SVG renditions of the paper's figures.

A dependency-free SVG line-chart renderer for Figures 5 and 6, following
a small, validated visual system (print-class artifact: no interaction
layer):

* categorical series colors in fixed slot order (validated: lightness
  band, chroma, CVD adjacent-pair separation; the two low-contrast slots
  are relieved by direct labels);
* thin 2-px lines with 8-px markers, recessive 1-px grid;
* all text in ink tokens (never the series color); identity is carried
  by a legend *and* direct end-of-line labels with color chips;
* one y-axis.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = ["line_chart_svg", "save_figure_svg"]

# validated categorical slots (light mode, surface #fcfcfb)
SERIES_COLORS = ("#2a78d6", "#1baf7a", "#eda100", "#008300", "#4a3aa7")
SURFACE = "#fcfcfb"
INK_PRIMARY = "#0b0b0b"
INK_SECONDARY = "#52514e"
GRID = "#e7e6e2"

_FONT = 'font-family="Helvetica,Arial,sans-serif"'


def _nice_ticks(lo: float, hi: float, count: int = 5) -> List[float]:
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / count
    magnitude = 10 ** int(f"{raw:e}".split("e")[1])
    for step in (1, 2, 2.5, 5, 10):
        if raw <= step * magnitude:
            step_size = step * magnitude
            break
    else:  # pragma: no cover - loop always breaks
        step_size = raw
    first = int(lo / step_size) * step_size
    ticks = []
    tick = first
    while tick <= hi + step_size * 0.01:
        if tick >= lo - step_size * 0.01:
            ticks.append(round(tick, 10))
        tick += step_size
    return ticks


def line_chart_svg(
    series: Dict[str, List[Tuple[float, float]]],
    title: str,
    xlabel: str,
    ylabel: str,
    subtitle: str = "",
) -> str:
    """Render a multi-series line chart as a 720 x 440 SVG document string."""
    width, height = 720, 440
    if not series:
        raise ValueError("no series to plot")
    if len(series) > len(SERIES_COLORS):
        raise ValueError(f"at most {len(SERIES_COLORS)} series supported")
    margin_left, margin_right = 64, 128
    margin_top, margin_bottom = 64, 56
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom
    xs = [x for pts in series.values() for x, _y in pts]
    ys = [y for pts in series.values() for _x, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_ticks = _nice_ticks(0.0, max(ys))
    y_lo, y_hi = 0.0, max(y_ticks[-1], max(ys))
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return margin_left + (x - x_lo) / x_span * plot_w

    def sy(y: float) -> float:
        return margin_top + plot_h - (y - y_lo) / y_span * plot_h

    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" aria-label="{title}">'
    )
    parts.append(f'<rect width="{width}" height="{height}" fill="{SURFACE}"/>')
    parts.append(
        f'<text x="{margin_left}" y="26" {_FONT} font-size="16" font-weight="bold" '
        f'fill="{INK_PRIMARY}">{title}</text>'
    )
    if subtitle:
        parts.append(
            f'<text x="{margin_left}" y="44" {_FONT} font-size="12" '
            f'fill="{INK_SECONDARY}">{subtitle}</text>'
        )
    # recessive grid + y tick labels
    for tick in y_ticks:
        y = sy(tick)
        parts.append(
            f'<line x1="{margin_left}" y1="{y:.1f}" x2="{margin_left + plot_w}" '
            f'y2="{y:.1f}" stroke="{GRID}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_left - 8}" y="{y + 4:.1f}" {_FONT} font-size="11" '
            f'fill="{INK_SECONDARY}" text-anchor="end">{tick:g}</text>'
        )
    # x ticks
    for tick in _nice_ticks(x_lo, x_hi, count=6):
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{margin_top + plot_h}" x2="{x:.1f}" '
            f'y2="{margin_top + plot_h + 4}" stroke="{INK_SECONDARY}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{margin_top + plot_h + 18}" {_FONT} font-size="11" '
            f'fill="{INK_SECONDARY}" text-anchor="middle">{tick:g}</text>'
        )
    # axis labels
    parts.append(
        f'<text x="{margin_left + plot_w / 2:.0f}" y="{height - 12}" {_FONT} '
        f'font-size="12" fill="{INK_SECONDARY}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{margin_top + plot_h / 2:.0f}" {_FONT} font-size="12" '
        f'fill="{INK_SECONDARY}" text-anchor="middle" '
        f'transform="rotate(-90 18 {margin_top + plot_h / 2:.0f})">{ylabel}</text>'
    )
    # baseline
    parts.append(
        f'<line x1="{margin_left}" y1="{margin_top + plot_h}" '
        f'x2="{margin_left + plot_w}" y2="{margin_top + plot_h}" '
        f'stroke="{INK_SECONDARY}" stroke-width="1"/>'
    )
    # series: 2px lines, 8px markers, direct end labels in ink + chip
    label_slots: List[float] = []
    for index, (name, points) in enumerate(series.items()):
        color = SERIES_COLORS[index]
        ordered = sorted(points)
        path = " ".join(
            f"{'M' if i == 0 else 'L'}{sx(x):.1f},{sy(y):.1f}"
            for i, (x, y) in enumerate(ordered)
        )
        parts.append(f'<path d="{path}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in ordered:
            parts.append(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="4" fill="{color}" '
                f'stroke="{SURFACE}" stroke-width="2"/>'
            )
        # direct label at line end, nudged to avoid collisions
        end_x, end_y = ordered[-1]
        label_y = sy(end_y)
        while any(abs(label_y - used) < 14 for used in label_slots):
            label_y += 14
        label_slots.append(label_y)
        parts.append(
            f'<rect x="{margin_left + plot_w + 8}" y="{label_y - 5:.1f}" width="10" '
            f'height="10" rx="2" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{margin_left + plot_w + 22}" y="{label_y + 4:.1f}" {_FONT} '
            f'font-size="11" fill="{INK_PRIMARY}">{name}</text>'
        )
    # legend row (top right)
    legend_x = margin_left
    legend_y = margin_top - 10
    for index, name in enumerate(series):
        color = SERIES_COLORS[index]
        parts.append(
            f'<rect x="{legend_x}" y="{legend_y - 9}" width="10" height="10" rx="2" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 14}" y="{legend_y}" {_FONT} font-size="11" '
            f'fill="{INK_PRIMARY}">{name}</text>'
        )
        legend_x += 20 + 7 * len(name)
    parts.append("</svg>")
    return "\n".join(parts)


class _Chart(NamedTuple):
    #: configurations the chart leaves out
    skip: Tuple[str, ...]
    title: str
    subtitle: str
    ylabel: str


#: how each of :data:`~repro.analysis.microbench.FIGURES` is drawn
_CHARTS = {
    "fig5": _Chart(("atm-taxi",),  # the paper's Figure 5 shows four configurations
                   "Figure 5 — round-trip latency vs message size",
                   "U-Net/FE (hub, Bay 28115, FN100) and U-Net/ATM (ASX-200, OC-3c)",
                   "round-trip time (µs)"),
    "fig6": _Chart((),
                   "Figure 6 — bandwidth vs message size",
                   "FE saturates near the 100 Mb/s wire; ATM reaches ~118 Mb/s on TAXI",
                   "bandwidth (Mb/s)"),
}


def save_figure_svg(figure: str, path: str, sizes: Optional[Sequence[int]] = None) -> str:
    """Measure and render ``figure`` (``"fig5"`` or ``"fig6"``) to ``path``,
    at the sizes of its text table unless ``sizes`` are given."""
    from .microbench import FIGURES

    fig, chart = FIGURES[figure], _CHARTS[figure]
    sizes = list(sizes or fig.sizes)
    series = {name: [(float(s), fig.measure(name, s)) for s in sizes]
              for name in fig.configs if name not in chart.skip}
    svg = line_chart_svg(
        series,
        title=chart.title,
        subtitle=chart.subtitle,
        xlabel="message size (bytes)",
        ylabel=chart.ylabel,
    )
    with open(path, "w") as f:
        f.write(svg)
    return path
