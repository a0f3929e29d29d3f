"""Chaos soak harness: AM traffic through parameterized fault scenarios.

Each scenario attaches a perturbation pipeline to both ends of a
two-host network (either substrate) and pushes a stream of Active
Messages requests — every ``RPC_EVERY``-th one a round-trip RPC — while
:func:`~repro.faults.stream.run_stream` checks the delivery invariants
the layers above depend on:

* **exactly-once dispatch** — every request id handled once, no dupes;
* **FIFO per channel** — ids arrive in send order;
* **termination** — the stream completes before the time limit (no
  deadlock on window stalls, no livelock between timers and faults);
* **payload integrity** — corrupted PDUs never reach a handler.

Results carry the reliability-layer counters (retransmissions,
timeouts, fast retransmits, RTO estimate) plus the fault pipeline's own
stage statistics, and the suite runs every scenario under each of
:data:`MODES` — the fixed-RTO baseline and the adaptive stack — on one
seed, so the robustness win is measurable, not anecdotal.  This module
is only the rows, the modes and the report: the transport ablation
(:mod:`~repro.faults.transport`) is another mode table over the same
runner.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from ..am import AmConfig
from ..suite import Suite
from .perturb import (
    DelayJitter,
    Duplicate,
    GilbertElliott,
    LinkFlap,
    LinkPerturbation,
    NicStall,
    Reorder,
)
from .stream import StreamResult, StreamScenario, render_fault_stats, run_stream

__all__ = [
    "SCENARIOS",
    "MODES",
    "wins",
    "render_soak_table",
    "render_comparison",
]


#: bytes per message
PAYLOAD_BYTES = 200
#: every k-th message is a full RPC round trip
RPC_EVERY = 5


def _burst_stages() -> List[LinkPerturbation]:
    return [GilbertElliott(p_good_to_bad=0.03, p_bad_to_good=0.3, loss_bad=0.8)]


def _reorder_stages() -> List[LinkPerturbation]:
    return [Reorder(rate=0.15, delay_us=(30.0, 250.0))]


def _jitter_stages() -> List[LinkPerturbation]:
    return [DelayJitter(min_us=0.0, max_us=150.0), Duplicate(rate=0.03)]


def _flap_stages() -> List[LinkPerturbation]:
    return [LinkFlap(up_us=4000.0, down_us=600.0, offset_us=1000.0)]


def _stall_stages() -> List[LinkPerturbation]:
    return [NicStall(period_us=5000.0, stall_us=400.0)]


def _combined_stages() -> List[LinkPerturbation]:
    return [
        GilbertElliott(p_good_to_bad=0.02, p_bad_to_good=0.35, loss_bad=0.7),
        Reorder(rate=0.08, delay_us=(20.0, 150.0)),
        DelayJitter(min_us=0.0, max_us=60.0),
        LinkFlap(up_us=8000.0, down_us=400.0, offset_us=2000.0),
    ]


#: every chaos row perturbs both directions with the same stages
SCENARIOS: Dict[str, StreamScenario] = {
    name: StreamScenario(name, description, stages, rev_stages=stages,
                         substrate=substrate, messages=60,
                         payload_bytes=PAYLOAD_BYTES, rpc_every=RPC_EVERY)
    for name, description, stages, substrate in (
        ("bursty", "Gilbert-Elliott bursty loss", _burst_stages, "ethernet"),
        ("reorder", "random reordering (striped-path style)", _reorder_stages, "ethernet"),
        ("jitter", "delay jitter + duplication", _jitter_stages, "ethernet"),
        ("flap", "periodic link up/down flapping", _flap_stages, "ethernet"),
        ("stall", "periodic NIC delivery stalls", _stall_stages, "ethernet"),
        ("combined", "bursty loss + reorder + jitter + flap", _combined_stages, "ethernet"),
        ("bursty-atm", "Gilbert-Elliott bursty cell loss on ATM", _burst_stages, "atm"),
    )
}


#: the reliability stacks a scenario is compared under: today's static
#: 4 ms RTO and window, and the full adaptive stack
MODES: Dict[str, Callable[[], AmConfig]] = {
    "fixed": AmConfig,
    "adaptive": AmConfig.adaptive,
}


def wins(fixed: StreamResult, adaptive: StreamResult) -> List[str]:
    """Robustness metrics on which the adaptive stack beat the baseline."""
    better: List[str] = []
    if adaptive.completed and not fixed.completed:
        better.append("completed where baseline did not")
    if adaptive.elapsed_us < fixed.elapsed_us:
        better.append(
            f"completion time {adaptive.elapsed_us / 1000.0:.2f} ms"
            f" < {fixed.elapsed_us / 1000.0:.2f} ms"
        )
    if adaptive.rexmit < fixed.rexmit:
        better.append(f"retransmissions {adaptive.rexmit} < {fixed.rexmit}")
    if adaptive.dup_rx < fixed.dup_rx:
        better.append(f"spurious deliveries {adaptive.dup_rx} < {fixed.dup_rx}")
    return better


def render_soak_table(results: Sequence[StreamResult]) -> str:
    """One row per run, via the standard report table."""
    from ..analysis.report import format_table

    rows = []
    for r in results:
        rows.append([
            r.scenario,
            r.mode,
            "ok" if r.ok else "FAIL",
            r.elapsed_us / 1000.0,
            r.rexmit,
            r.timeouts,
            r.fast_retransmits,
            r.dup_rx,
            f"{r.srtt_us:.0f}" if r.srtt_us is not None else "-",
        ])
    return format_table(
        ("scenario", "mode", "invariants", "time_ms", "rexmit", "rto_fire", "fast_rx",
         "dup_rx", "srtt_us"),
        rows,
        title="Chaos soak report",
    )


def render_comparison(results: Sequence[StreamResult]) -> str:
    """The soak table plus per-scenario adaptive-vs-fixed verdicts."""
    lines = [render_soak_table(results)]
    by_key = {(r.scenario, r.mode): r for r in results}
    for name in dict.fromkeys(r.scenario for r in results):
        fixed = by_key.get((name, "fixed"))
        adaptive = by_key.get((name, "adaptive"))
        if fixed is None or adaptive is None:
            continue
        won = wins(fixed, adaptive)
        verdict = "; ".join(won) if won else "no metric improved"
        lines.append(f"  {name}: adaptive vs fixed -> {verdict}")
    return "\n".join(lines)


SUITE = Suite(
    scenarios=SCENARIOS,
    run=lambda scenario, mode, seed, progress: run_stream(
        scenario, mode, MODES[mode](), seed),
    render=render_comparison,
    modes=lambda scenario: tuple(MODES),
    stats=render_fault_stats,
    overrides=frozenset({"messages", "seed"}),
    skipped_by_default=("bursty-atm",),
)
