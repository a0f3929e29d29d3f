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

from .checker import (
    BUGS,
    CaseReport,
    Divergence,
    SUBSTRATES,
    diff_case,
    inject_bug,
    render_report,
    run_case,
    run_substrate,
)
from .fabric import (
    FABRIC_BUGS,
    FabricCaseReport,
    inject_fabric_bug,
    render_fabric_case,
    run_fabric_case,
)
from .model import RefTrace, run_reference
from .observe import ObservationProbe, ObservedTrace
from .schedule import CONFIG_PRESETS, ConformanceCase, Message, generate_case
from .shrink import (
    REPRODUCER,
    ShrinkResult,
    load_artifact,
    load_artifact_meta,
    shrink_case,
)

__all__ = [
    "Message",
    "ConformanceCase",
    "CONFIG_PRESETS",
    "generate_case",
    "RefTrace",
    "run_reference",
    "ObservedTrace",
    "ObservationProbe",
    "Divergence",
    "CaseReport",
    "SUBSTRATES",
    "BUGS",
    "FABRIC_BUGS",
    "FabricCaseReport",
    "inject_bug",
    "inject_fabric_bug",
    "run_fabric_case",
    "render_fabric_case",
    "run_substrate",
    "run_case",
    "diff_case",
    "render_report",
    "ShrinkResult",
    "shrink_case",
    "REPRODUCER",
    "load_artifact",
    "load_artifact_meta",
]
