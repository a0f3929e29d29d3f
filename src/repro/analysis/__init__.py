"""Experiment harness: microbenchmarks, timelines, tables, reporting."""

from .microbench import (
    FIGURE5_CONFIGS,
    FIGURE6_CONFIGS,
    MicrobenchSetup,
    bandwidth_series,
    measure_bandwidth,
    measure_rtt,
    measure_send_overhead,
    rtt_series,
    setup_atm,
    setup_fe_hub,
    setup_fe_switch,
)
from .benchcmp import (
    MetricDelta,
    compare_bench,
    compare_bench_files,
    headline_metrics,
    render_compare,
)
from .report import ascii_plot, format_comparison, format_table
from .stats import am_stats, backend_stats, cluster_stats, network_stats, render_stats
from .splitc_bench import (
    BENCHMARKS,
    PAPER_KEYS_PER_NODE,
    Table1Entry,
    figure7,
    table1,
    table1_des,
    table2,
)
from .timelines import atm_trace_transfer, figure3_timeline, figure4_timeline, trace_transfer
from .journey import render_journey, trace_journey
from .svgfig import line_chart_svg, save_figure5_svg, save_figure6_svg
from .validate import Claim, render_validation, validate_reproduction

__all__ = [
    "MicrobenchSetup",
    "setup_fe_hub",
    "setup_fe_switch",
    "setup_atm",
    "measure_rtt",
    "measure_bandwidth",
    "measure_send_overhead",
    "rtt_series",
    "bandwidth_series",
    "FIGURE5_CONFIGS",
    "FIGURE6_CONFIGS",
    "trace_transfer",
    "atm_trace_transfer",
    "figure3_timeline",
    "figure4_timeline",
    "format_table",
    "format_comparison",
    "ascii_plot",
    "backend_stats",
    "am_stats",
    "network_stats",
    "cluster_stats",
    "render_stats",
    "Claim",
    "MetricDelta",
    "compare_bench",
    "compare_bench_files",
    "headline_metrics",
    "render_compare",
    "validate_reproduction",
    "render_validation",
    "line_chart_svg",
    "save_figure5_svg",
    "save_figure6_svg",
    "trace_journey",
    "render_journey",
    "table1",
    "table1_des",
    "table2",
    "figure7",
    "Table1Entry",
    "BENCHMARKS",
    "PAPER_KEYS_PER_NODE",
]
