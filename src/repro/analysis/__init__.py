"""Experiment harness: microbenchmarks, timelines, tables, reporting."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".microbench": (
        "FIGURE5_CONFIGS", "FIGURE6_CONFIGS", "FIGURES", "Figure", "MicrobenchSetup",
        "bandwidth_of", "measure_bandwidth", "measure_rtt", "rtt_of", "setup_atm",
        "setup_fe_hub", "setup_fe_switch",
    ),
    ".benchcmp": (
        "MetricDelta", "compare_bench", "compare_bench_files",
        "headline_metrics", "render_compare",
    ),
    ".report": ("ascii_plot", "format_comparison", "format_table"),
    ".stats": ("cluster_stats", "render_stats"),
    ".splitc_bench": (
        "BENCHMARKS", "PAPER_KEYS_PER_NODE", "Table1Entry", "figure7",
        "run_des", "table1", "table1_des", "table2",
    ),
    ".timelines": (
        "atm_trace_transfer", "figure3_timeline", "figure4_timeline",
        "trace_transfer",
    ),
    ".journey": ("render_journey", "trace_journey"),
    ".svgfig": ("line_chart_svg", "save_figure_svg"),
    ".validate": ("Claim", "render_validation", "validate_reproduction"),
})
