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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .. import networks
from ..am import AmConfig, AmEndpoint
from ..artifact import Artifact, Headline
from ..sim import RngRegistry, Simulator
from ..suite import DEFAULT_SEED, Suite
from .inject import attach_pipeline
from .perturb import BottleneckQueue, GilbertElliott, LinkPerturbation, Reorder
from .stream import (
    build_am_star,
    check_delivery,
    render_fault_stats,
    stream_payload,
)

__all__ = [
    "TRANSPORT_ARTIFACT",
    "TRANSPORT_MODES",
    "TRANSPORT_SCENARIOS",
    "TransportScenario",
    "TransportResult",
    "mark_frame",
    "run_transport",
    "transport_payload",
    "render_transport_table",
]


def mark_frame(frame):
    """CE-mark one Ethernet frame: rebuild with the ECN CE flag set in
    the AM header.  The frame stays CRC-clean — congestion marking is
    done by conforming switch hardware, not line noise."""
    from ..am.protocol import mark_ce
    from ..ethernet.frames import EthernetFrame

    return EthernetFrame(
        dst_mac=frame.dst_mac,
        src_mac=frame.src_mac,
        dst_port=frame.dst_port,
        src_port=frame.src_port,
        payload=mark_ce(frame.payload),
        corrupted=frame.corrupted,
    )


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
@dataclass
class TransportScenario:
    """One reproducible transport-ablation scenario."""

    name: str
    description: str
    #: fresh forward-path stages (request direction, attached at the sink)
    fwd_stages: Callable[[], List[LinkPerturbation]]
    #: fresh reverse-path stages (ack direction, attached at each sender)
    rev_stages: Optional[Callable[[], List[LinkPerturbation]]] = None
    #: concurrent senders into the one sink (1 = a plain stream)
    senders: int = 1
    #: messages per sender
    messages: int = 80
    payload_bytes: int = 400
    time_limit_us: float = 60_000_000.0


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
    # capacity.  The marker is installed for every mode — gbn and sack
    # simply ignore the bit, which *is* the loss-feedback baseline.
    # service slower than the senders' aggregate arrival rate, or the
    # queue never builds and there is nothing to signal
    return [BottleneckQueue(service_us=60.0, capacity=24, mark_threshold=6,
                            marker=mark_frame)]


TRANSPORT_SCENARIOS: Dict[str, TransportScenario] = {
    scenario.name: scenario
    for scenario in (
        TransportScenario(
            "ge-bursty",
            "Gilbert-Elliott bursty loss, both directions",
            _ge_stages, rev_stages=_ge_ack_stages,
            messages=80, payload_bytes=400),
        TransportScenario(
            "reorder",
            "striped-path reordering (no loss)",
            _reorder_stages, rev_stages=None,
            messages=80, payload_bytes=400),
        TransportScenario(
            "incast-bottleneck",
            "4-to-1 incast through an ECN-marking bottleneck queue",
            _bottleneck_stages, rev_stages=None,
            senders=4, messages=40, payload_bytes=400),
    )
}


# ----------------------------------------------------------------- running
@dataclass
class TransportResult:
    """Outcome and counters of one (scenario, mode) run."""

    scenario: str
    mode: str
    completed: bool
    violations: List[str]
    elapsed_us: float
    delivered: int
    messages: int
    goodput_mbps: float
    #: recovery-time snapshot: the longest sim-time gap between
    #: consecutive sink deliveries (run start counts as the first
    #: reference point) — how long the worst loss burst stalled the flow
    worst_stall_us: float
    rexmit: int
    timeouts: int
    dup_rx: int
    ecn_marks: int
    ecn_echoes: int
    ecn_backoffs: int
    queue_marked: int = 0
    queue_dropped: int = 0
    fault_stats: Dict[str, dict] = field(default_factory=dict)
    #: events the simulator processed (exact; the driver times the run)
    sim_events: int = 0

    @property
    def ok(self) -> bool:
        return self.completed and not self.violations

    def to_row(self) -> dict:
        return {
            "completed": self.completed,
            "delivered": self.delivered,
            "messages": self.messages,
            "elapsed_ms": round(self.elapsed_us / 1000.0, 3),
            "goodput_mbps": round(self.goodput_mbps, 4),
            "worst_stall_us": round(self.worst_stall_us, 3),
            "rexmit": self.rexmit,
            "timeouts": self.timeouts,
            "dup_rx": self.dup_rx,
            "ecn_marks": self.ecn_marks,
            "ecn_echoes": self.ecn_echoes,
            "ecn_backoffs": self.ecn_backoffs,
            "queue_marked": self.queue_marked,
            "queue_dropped": self.queue_dropped,
            "violations": len(self.violations),
        }


def run_transport(scenario: TransportScenario, mode: str,
                  seed: int = DEFAULT_SEED) -> TransportResult:
    """Run ``scenario`` once under transport ``mode``, invariants checked."""
    if mode not in TRANSPORT_MODES:
        raise ValueError(f"unknown transport mode {mode!r}; "
                         f"choose from {sorted(TRANSPORT_MODES)}")
    sim = Simulator()
    names = ["sink"] + [f"src{s}" for s in range(scenario.senders)]
    net = networks.get("ethernet").build(sim)
    (sink_host, *sender_hosts), (sink_am, *sender_ams) = build_am_star(
        net, names, sink=0, config=TRANSPORT_MODES[mode]())

    registry = RngRegistry(seed)
    # one forward pipeline at the sink: with several senders it *is*
    # the shared uplink, which is the whole point of the incast shape
    fwd = attach_pipeline(sink_host.backend, scenario.fwd_stages(),
                          rng=registry, prefix="faults.fwd")
    pipelines = [fwd]
    if scenario.rev_stages is not None:
        pipelines += [attach_pipeline(host.backend, scenario.rev_stages(),
                                      rng=registry, prefix=f"faults.rev{s}")
                      for s, host in enumerate(sender_hosts)]

    delivered: Dict[int, List[int]] = {s: [] for s in range(scenario.senders)}
    integrity_failures: List[tuple] = []
    delivery_times: List[float] = []

    def handler(ctx) -> None:
        s, i = ctx.args[0], ctx.args[1]
        delivered[s].append(i)
        delivery_times.append(sim.now)
        if ctx.data != stream_payload(i, scenario.payload_bytes, sender=s):
            integrity_failures.append((s, i))

    sink_am.register_handler(1, handler)

    done_at: List[float] = []

    def traffic(s: int, am: AmEndpoint):
        for i in range(scenario.messages):
            yield from am.request(0, 1, args=(s, i), data=stream_payload(
                i, scenario.payload_bytes, sender=s))
        done_at.append(sim.now)

    with net:
        processes = [sim.process(traffic(s, am), name=f"transport.src{s}")
                     for s, am in enumerate(sender_ams)]
        sim.run(until=scenario.time_limit_us)
        completed = all(p.triggered for p in processes)
        elapsed_us = max(done_at) if completed and done_at else scenario.time_limit_us
        if completed:
            # drain the retransmission tail so the delivery checks see it all
            for am in sender_ams:
                am.shutdown()
            sink_am.shutdown()
            sim.run(until=min(scenario.time_limit_us, sim.now + 2_000_000.0))

    total = scenario.senders * scenario.messages
    got = sum(len(ids) for ids in delivered.values())
    violations = check_delivery(delivered, scenario.messages, completed,
                                scenario.time_limit_us, integrity_failures)

    sender_snaps = [am.snapshot()[0] for am in sender_ams]
    sink_snaps = sink_am.snapshot()
    queue_marked = queue_dropped = 0
    for stage in fwd.stages:
        if isinstance(stage, BottleneckQueue):
            queue_marked += stage.marked
            queue_dropped += stage.dropped
    worst_stall = 0.0
    prev_t = 0.0
    for t in delivery_times:
        worst_stall = max(worst_stall, t - prev_t)
        prev_t = t
    fault_stats = {f"pipeline{i}": p.stats() for i, p in enumerate(pipelines)}
    for pipeline in pipelines:
        pipeline.restore()
    return TransportResult(
        scenario=scenario.name,
        mode=mode,
        completed=completed,
        violations=violations,
        elapsed_us=elapsed_us,
        delivered=got,
        messages=total,
        # bits per microsecond == megabits per second; goodput counts
        # payload bytes actually dispatched, not wire traffic
        goodput_mbps=got * scenario.payload_bytes * 8 / max(1.0, elapsed_us),
        worst_stall_us=worst_stall,
        rexmit=sum(p["retransmissions"] for p in sender_snaps),
        timeouts=sum(p["timeouts"] for p in sender_snaps),
        dup_rx=sum(p["duplicates"] for p in sink_snaps.values()),
        ecn_marks=sum(p["ecn_marks"] for p in sink_snaps.values()),
        ecn_echoes=sum(p["ecn_echoes"] for p in sink_snaps.values()),
        ecn_backoffs=sum(p["ecn_backoffs"] for p in sender_snaps),
        queue_marked=queue_marked,
        queue_dropped=queue_dropped,
        fault_stats=fault_stats,
        sim_events=sim.events_processed,
    )


def _run_suite(scenario: TransportScenario, progress,
               seed: int = DEFAULT_SEED) -> List[TransportResult]:
    """Every mode on one seed, so the three transports face byte-identical
    fault patterns (until their own behaviour diverges the arrival
    sequence — the point of the test)."""
    results: List[TransportResult] = []
    for mode in TRANSPORT_MODES:
        progress(f"{scenario.name} under {mode}...")
        results.append(run_transport(scenario, mode, seed=seed))
    return results


# ------------------------------------------------------------------ report
_ROW_SCHEMA = {
    "completed": bool, "delivered": int, "messages": int,
    "elapsed_ms": float, "goodput_mbps": float, "worst_stall_us": float,
    "rexmit": int,
    "timeouts": int, "dup_rx": int, "ecn_marks": int, "ecn_echoes": int,
    "ecn_backoffs": int, "queue_marked": int, "queue_dropped": int,
    "violations": int,
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


def transport_payload(results: Sequence[TransportResult], seed: int) -> dict:
    """Assemble the BENCH_transport payload from a full suite run."""
    by_scenario: Dict[str, Dict[str, TransportResult]] = {}
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
            "modes": {mode: modes[mode].to_row() for mode in TRANSPORT_MODES},
        })
    return {"format": TRANSPORT_ARTIFACT.format, "seed": seed,
            "scenarios": scenarios}


def render_transport_table(results: Sequence[TransportResult]) -> str:
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
    run=_run_suite,
    render=render_transport_table,
    stats=render_fault_stats,
    overrides=frozenset({"seed"}),
    artifact=TRANSPORT_ARTIFACT,
    payload=transport_payload,
)
