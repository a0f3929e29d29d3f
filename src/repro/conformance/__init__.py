"""Differential conformance harness.

Three executions of one case — the ATM substrate, the FE substrate, and
a small substrate-free reference model — must agree on every AM-level
observable: what gets dispatched and in what order, which RPCs
complete, what may be dropped and why, and (within tolerance bands) how
hard the reliability layer had to work.  Divergence means one of the
implementations has drifted from U-Net/AM semantics; the shrinker then
minimizes the failing schedule to a replayable artifact.

Entry points: :func:`generate_case` / :func:`run_case` /
:func:`shrink_case`, or ``python -m repro conformance`` on the CLI.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".checker": (
        "BUGS", "CaseReport", "Divergence", "SUBSTRATES", "SubstrateUnavailable",
        "diff_case", "inject_bug", "render_report", "run_case", "run_substrate",
        "runner",
    ),
    ".fabric": (
        "FABRIC_BUGS", "FabricCaseReport", "inject_fabric_bug",
        "render_fabric_case", "run_fabric_case",
    ),
    ".model": ("run_reference",),
    ".observe": ("ObservationProbe", "ObservedTrace"),
    ".schedule": (
        "CONFIG_PRESETS", "ConformanceCase", "Message", "generate_case",
    ),
    ".shrink": (
        "REPRODUCER", "ShrinkResult", "load_artifact", "load_artifact_meta",
        "shrink_case",
    ),
})
