"""Transport ablation soak: go-back-N vs SACK vs ECN, head to head.

Classic AM recovery is go-back-N: one hole retransmits the entire
outstanding window, and the only congestion signal is loss itself.
The loss-resilient transport adds two independent upgrades —
selective acknowledgment (``ack_mode="sack"``) and mark-based
congestion control (``congestion="ecn"``) — and this suite is where
the upgrade earns its keep *as a number*, not an anecdote.

Each scenario drives the same seeded workload through the same fault
pipeline under three endpoint configurations:

* **gbn** — classic cumulative-only acks, whole-window retransmit;
* **sack** — cumulative ack + bitmap, reorder buffer, hole-only
  selective retransmit;
* **ecn** — sack plus mark-echo AIMD: the bottleneck queue CE-marks
  instead of dropping, receivers echo, senders back off before loss.

Scenarios cover the three regimes where the schemes differ most:
Gilbert-Elliott bursty loss (SACK's home turf: a burst opens many
holes at once and go-back-N replays everything behind them),
striped-path reordering (the reorder buffer absorbs what go-back-N
mistakes for loss), and an incast into a deterministic bottleneck
queue (ECN's home turf: the queue signals *before* it must drop).

Everything is simulated and seeded — no wall clock, no ambient RNG —
so the emitted ``BENCH_transport.json`` is byte-reproducible and CI
regenerates and diffs it.  The delivery invariants (exactly-once,
per-channel FIFO, payload integrity, termination) are asserted on
every run: a transport that wins goodput by breaking delivery loses.
The runs themselves are :func:`~repro.faults.stream.run_stream`'s, the
chaos soak's runner: this module is the rows, the modes, the artifact
and the report.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from ..am import AmConfig
from ..artifact import Artifact, Headline
from ..suite import Suite
from .perturb import BottleneckQueue, GilbertElliott, LinkPerturbation, Reorder
from .stream import StreamResult, StreamScenario, render_fault_stats, run_stream

__all__ = [
    "TRANSPORT_ARTIFACT",
    "TRANSPORT_MODES",
    "TRANSPORT_SCENARIOS",
    "transport_row",
    "transport_payload",
    "render_transport_table",
]


# ------------------------------------------------------------------- modes
def _gbn_config() -> AmConfig:
    return AmConfig(adaptive_rto=True)


def _sack_config() -> AmConfig:
    return AmConfig(ack_mode="sack", adaptive_rto=True)


def _ecn_config() -> AmConfig:
    return AmConfig(ack_mode="sack", congestion="ecn",
                    adaptive_rto=True, adaptive_window=True)


#: the three transports under test.  gbn and sack differ *only* in the
#: acknowledgment scheme (same timers, same static window) so the
#: goodput delta is attributable; ecn adds the mark-echo AIMD loop on
#: top of sack, which is the only configuration ECN is defined for.
TRANSPORT_MODES: Dict[str, Callable[[], AmConfig]] = {
    "gbn": _gbn_config,
    "sack": _sack_config,
    "ecn": _ecn_config,
}


# --------------------------------------------------------------- scenarios
def _ge_stages() -> List[LinkPerturbation]:
    # long-ish bad states that eat several back-to-back packets: the
    # burst opens a run of holes, which is exactly where hole-only
    # retransmit and whole-window replay part ways
    return [GilbertElliott(p_good_to_bad=0.05, p_bad_to_good=0.25, loss_bad=0.9)]


def _ge_ack_stages() -> List[LinkPerturbation]:
    # milder on the ack path: pure-ack loss slows every mode the same
    # way, so heavy reverse loss would only blur the comparison
    return [GilbertElliott(p_good_to_bad=0.02, p_bad_to_good=0.4, loss_bad=0.6)]


def _reorder_stages() -> List[LinkPerturbation]:
    return [Reorder(rate=0.25, delay_us=(50.0, 400.0))]


def _bottleneck_stages() -> List[LinkPerturbation]:
    # the shared uplink queue of the incast: drains one frame per
    # service_us, CE-marks above mark_threshold, tail-drops past
    # capacity.  It marks under every mode — gbn and sack simply ignore
    # the bit, which *is* the loss-feedback baseline.
    # service slower than the senders' aggregate arrival rate, or the
    # queue never builds and there is nothing to signal
    return [BottleneckQueue(service_us=60.0, capacity=24, mark_threshold=6)]


TRANSPORT_SCENARIOS: Dict[str, StreamScenario] = {
    scenario.name: scenario
    for scenario in (
        StreamScenario("ge-bursty", "Gilbert-Elliott bursty loss, both directions",
                       _ge_stages, rev_stages=_ge_ack_stages),
        StreamScenario("reorder", "striped-path reordering (no loss)",
                       _reorder_stages),
        StreamScenario("incast-bottleneck",
                       "4-to-1 incast through an ECN-marking bottleneck queue",
                       _bottleneck_stages, senders=4, messages=40),
    )
}


# ------------------------------------------------------------------ report
_ROW_SCHEMA = {
    "completed": bool, "delivered": int, "messages": int,
    "elapsed_ms": float, "goodput_mbps": float, "worst_stall_us": float,
    "rexmit": int,
    "timeouts": int, "dup_rx": int, "ecn_marks": int, "ecn_echoes": int,
    "ecn_backoffs": int, "queue_marked": int, "queue_dropped": int,
    "violations": int,
}


def transport_row(r: StreamResult) -> dict:
    """One (scenario, mode) run as its ``BENCH_transport.json`` row."""
    return {
        "completed": r.completed,
        "delivered": r.delivered,
        "messages": r.messages,
        "elapsed_ms": round(r.elapsed_us / 1000.0, 3),
        "goodput_mbps": round(r.goodput_mbps, 4),
        "worst_stall_us": round(r.worst_stall_us, 3),
        "rexmit": r.rexmit,
        "timeouts": r.timeouts,
        "dup_rx": r.dup_rx,
        "ecn_marks": r.ecn_marks,
        "ecn_echoes": r.ecn_echoes,
        "ecn_backoffs": r.ecn_backoffs,
        "queue_marked": r.queue_marked,
        "queue_dropped": r.queue_dropped,
        "violations": len(r.violations),
    }


def _headlines(payload: dict) -> List[Headline]:
    return [(f"{entry['scenario']}[{mode}].goodput_mbps", "higher",
             row["goodput_mbps"])
            for entry in payload["scenarios"]
            for mode, row in sorted(entry["modes"].items())]


#: ``BENCH_transport.json``: simulated and seeded, so CI regenerates it
#: and gates it with ``diff``
TRANSPORT_ARTIFACT = Artifact(
    format="repro-bench-transport/1",
    schema={
        "seed": int,
        "scenarios": [{
            "scenario": str,
            "description": str,
            "senders": int,
            "messages_per_sender": int,
            "payload_bytes": int,
            "modes": {mode: _ROW_SCHEMA for mode in ("gbn", "sack", "ecn")},
        }],
    },
    headlines=_headlines,
    non_empty=("scenarios",),
)


def transport_payload(results: Sequence[StreamResult], seed: int) -> dict:
    """Assemble the BENCH_transport payload from a full suite run."""
    by_scenario: Dict[str, Dict[str, StreamResult]] = {}
    for r in results:
        by_scenario.setdefault(r.scenario, {})[r.mode] = r
    scenarios = []
    for name, modes in by_scenario.items():
        missing = sorted(set(TRANSPORT_MODES) - set(modes))
        if missing:
            raise ValueError(f"scenario {name!r} is missing modes {missing}; "
                             f"the artifact is a three-way comparison")
        scenario = TRANSPORT_SCENARIOS[name]
        scenarios.append({
            "scenario": name,
            "description": scenario.description,
            "senders": scenario.senders,
            "messages_per_sender": scenario.messages,
            "payload_bytes": scenario.payload_bytes,
            "modes": {mode: transport_row(modes[mode]) for mode in TRANSPORT_MODES},
        })
    return {"format": TRANSPORT_ARTIFACT.format, "seed": seed,
            "scenarios": scenarios}


def render_transport_table(results: Sequence[StreamResult]) -> str:
    """One row per (scenario, mode) plus the per-scenario verdicts."""
    from ..analysis.report import format_table

    rows = []
    for r in results:
        rows.append([
            r.scenario, r.mode,
            "ok" if r.ok else "FAIL",
            r.elapsed_us / 1000.0,
            f"{r.goodput_mbps:.2f}",
            f"{r.worst_stall_us / 1000.0:.2f}",
            r.rexmit, r.timeouts, r.dup_rx,
            r.ecn_marks, r.ecn_backoffs,
        ])
    lines = [format_table(
        ("scenario", "mode", "invariants", "time_ms", "goodput_mbps",
         "stall_ms", "rexmit", "rto_fire", "dup_rx", "ce_marks", "backoffs"),
        rows,
        title="Transport ablation: go-back-N vs SACK vs ECN",
    )]
    by_key = {(r.scenario, r.mode): r for r in results}
    for name in dict.fromkeys(r.scenario for r in results):
        gbn = by_key.get((name, "gbn"))
        sack = by_key.get((name, "sack"))
        if gbn is None or sack is None or not gbn.goodput_mbps:
            continue
        ratio = sack.goodput_mbps / gbn.goodput_mbps
        lines.append(f"  {name}: sack/gbn goodput ratio {ratio:.2f}x "
                     f"(rexmit {sack.rexmit} vs {gbn.rexmit})")
        ecn = by_key.get((name, "ecn"))
        if ecn is not None and ecn.queue_marked:
            lines.append(f"  {name}: ecn saw {ecn.queue_marked} CE marks, "
                         f"{ecn.ecn_backoffs} backoffs, "
                         f"{ecn.queue_dropped} queue drops "
                         f"(gbn dropped {gbn.queue_dropped})")
    return "\n".join(lines)


SUITE = Suite(
    scenarios=TRANSPORT_SCENARIOS,
    run=lambda scenario, mode, seed, progress: run_stream(
        scenario, mode, TRANSPORT_MODES[mode](), seed),
    render=render_transport_table,
    modes=lambda scenario: TRANSPORT_MODES,
    stats=render_fault_stats,
    overrides=frozenset({"seed"}),
    artifact=TRANSPORT_ARTIFACT,
    payload=transport_payload,
)
