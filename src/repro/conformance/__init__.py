"""Differential conformance harness.

Three executions of one case — the ATM substrate, the FE substrate, and
a small substrate-free reference model — must agree on every AM-level
observable: what gets dispatched and in what order, which RPCs
complete, what may be dropped and why, and (within tolerance bands) how
hard the reliability layer had to work.  Divergence means one of the
implementations has drifted from U-Net/AM semantics; the shrinker then
minimizes the failing schedule to a replayable artifact.

One harness: one preset table (``CONFIG_PRESETS``, each row the AM
configuration and the receiver's sizing), one bug registry (``BUGS``,
each row patching ``AmCore`` or ``NicCollectiveEngine``), one diff
(``diff_case``).  The ``fabric`` preset holds seeded NIC-collective
healing cases to an arithmetic oracle instead of a model
(``run_fabric_case``); the CLI sweeps it in the same ``seed x config``
loop as the AM presets.

Entry points: :func:`generate_case` / :func:`run_case` /
:func:`shrink_case`, or ``python -m repro conformance`` on the CLI.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".checker": (
        "BUGS", "CaseReport", "Divergence", "FabricReport", "SUBSTRATES",
        "SubstrateUnavailable", "check_substrate", "diff_case", "inject_bug",
        "render_report", "run_case", "run_fabric_case", "run_substrate",
    ),
    ".model": ("run_reference",),
    ".observe": ("ObservationProbe", "ObservedTrace"),
    ".schedule": (
        "CONFIG_PRESETS", "ConformanceCase", "Message", "generate_case",
    ),
    ".shrink": (
        "REPRODUCER", "ShrinkResult", "load_artifact_meta",
        "shrink_case",
    ),
})
