"""Overload soak: incast pressure, sick endpoints, containment policies.

The chaos soak (:mod:`repro.faults.soak`) attacks the *wire*; this
harness attacks the *service capacity*.  Its scenarios build a many-to-
one cluster around one deliberately under-powered receiver host and
measure how far one misbehaving endpoint's damage spreads:

* **incast** — N Active Messages senders share one receiver endpoint
  with shallow queues.  Run ``drop`` vs ``drop+credit``: with
  receiver credit the senders stall on advertisements instead of
  overrunning the queues, so drops and retransmissions collapse.
* **sick-endpoint scenarios** — healthy AM pairs share the receiver
  host with one sick endpoint (stalled / slow / leaky, from
  :mod:`repro.faults.receiver`) that blaster processes pound with raw
  U-Net traffic.  Under the paper's status-quo ``drop`` policy the
  kernel burns its service time on traffic it will throw away, the
  device ring overflows, and the *healthy* endpoints starve.  Run the
  same seed under ``backpressure``/``quarantine`` and the health
  watchdog sheds the sick endpoint at the demux step, giving the healthy
  endpoints their kernel back.

Every run checks the PR-1 delivery invariants on the healthy streams
(exactly-once dispatch, per-channel FIFO, termination) and reports the
unified ``drop_stats()`` vocabulary per endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..am import AmConfig, AmEndpoint
from ..core import EndpointConfig
from ..core.endpoint import DROP_COUNTERS
from ..core.health import (
    POLICIES,
    POLICY_DROP,
    HealthConfig,
    HealthMonitor,
)
from ..sim import RngRegistry, Simulator
from ..suite import Suite
from ..telemetry import read, total
from .receiver import LeakyReceiver, SlowReceiver, StalledReceiver
from .stream import check_delivery

__all__ = [
    "OverloadScenario",
    "OverloadResult",
    "OVERLOAD_SCENARIOS",
    "run_overload",
    "render_overload_table",
    "render_endpoint_table",
]

#: receiver-side fault kinds a scenario may apply to its sick endpoint
SICK_FAULTS = ("stalled", "slow", "leaky")


@dataclass
class OverloadScenario:
    """One reproducible overload scenario."""

    name: str
    description: str
    #: None, or one of :data:`SICK_FAULTS` applied to the sick endpoint
    sick_fault: Optional[str] = None
    #: all senders target ONE receiver endpoint (the credit-incast shape)
    #: instead of one endpoint per healthy pair plus a sick endpoint
    shared_receiver: bool = False
    healthy_senders: int = 3
    #: blaster hosts pounding the sick endpoint with raw U-Net sends
    blasters: int = 2
    #: AM messages per healthy sender
    messages: int = 24
    payload_bytes: int = 200
    #: blasters send back to back, at wire speed
    blaster_payload_bytes: int = 384
    #: receiver host CPU speed relative to the 120 MHz Pentium: the
    #: kernel service path is the contended resource, so the receiver is
    #: deliberately under-powered relative to its senders
    receiver_cpu_factor: float = 1.0
    #: receiver endpoint sizing (shallow queues make overload visible)
    recv_queue_depth: int = 64
    rx_buffers: int = 32
    #: AM dispatch cost at the shared receiver (incast consumer pace)
    dispatch_overhead_us: float = 1.0
    time_limit_us: float = 2_000_000.0


@dataclass
class OverloadResult:
    """Outcome, telemetry, and drop accounting of one overload run."""

    scenario: str
    policy: str
    credit: bool
    completed: bool
    violations: List[str]
    completion_time_us: float
    #: healthy messages dispatched / expected
    healthy_delivered: int
    healthy_expected: int
    healthy_goodput_mbps: float
    retransmissions: int
    timeouts: int
    credit_stalls: int
    #: receiver-backend totals under the shared DROP_COUNTERS names,
    #: plus the device-ring overflow drops in front of the kernel
    backend_drops: Dict[str, int] = field(default_factory=dict)
    #: per-endpoint health telemetry rows (HealthMonitor.report())
    endpoint_rows: List[dict] = field(default_factory=list)
    #: attached receiver-fault statistics, if the scenario had one
    fault_stats: Dict[str, dict] = field(default_factory=dict)
    #: events the simulator processed (exact; the driver times the run)
    sim_events: int = 0

    @property
    def ok(self) -> bool:
        return self.completed and not self.violations

    @property
    def mode(self) -> str:
        return f"{self.policy}+credit" if self.credit else self.policy


OVERLOAD_SCENARIOS: Dict[str, OverloadScenario] = {
    scenario.name: scenario
    for scenario in (
        OverloadScenario(
            "incast",
            "N AM senders into one shallow shared endpoint (fixed vs credit)",
            shared_receiver=True,
            healthy_senders=4,
            blasters=0,
            messages=40,
            payload_bytes=48,
            recv_queue_depth=8,
            rx_buffers=16,
            dispatch_overhead_us=12.0,
        ),
        # sick-scenario sizing: blasters use small (64 B) frames, which
        # arrive faster than the slow receiver's kernel can service them
        # (the classic receive-livelock shape) — under the ``drop``
        # policy the device ring overflows and healthy frames die with
        # the junk; and the receive queue is kept shallower than the
        # donated buffer pool, so the sick endpoint's failed deliveries
        # recycle their buffers and every blasted frame keeps paying the
        # full copy cost instead of failing cheaply at allocation
        OverloadScenario(
            "stalled",
            "one stalled endpoint + blasters starve a slow receiver host",
            sick_fault="stalled",
            blaster_payload_bytes=64,
            receiver_cpu_factor=0.3,
            recv_queue_depth=16,
            rx_buffers=48,
            time_limit_us=50_000.0,
        ),
        OverloadScenario(
            "slow",
            "one lagging endpoint (late polls, late recycles) under incast",
            sick_fault="slow",
            blaster_payload_bytes=64,
            receiver_cpu_factor=0.3,
            recv_queue_depth=16,
            rx_buffers=48,
            time_limit_us=50_000.0,
        ),
        OverloadScenario(
            "leaky",
            "one buffer-leaking endpoint under incast",
            sick_fault="leaky",
            # must exceed SMALL_MESSAGE_MAX: inline deliveries use no
            # buffer, so only buffer-path frames can exercise the leak
            blaster_payload_bytes=96,
            receiver_cpu_factor=0.2,
            recv_queue_depth=16,
            rx_buffers=48,
            time_limit_us=50_000.0,
        ),
    )
}


def _receiver_endpoint_config(scenario: OverloadScenario) -> EndpointConfig:
    return EndpointConfig(
        num_buffers=max(64, scenario.rx_buffers * 2),
        buffer_size=2048,
        send_queue_depth=32,
        recv_queue_depth=scenario.recv_queue_depth,
    )


def _attach_sick_fault(kind: Optional[str], user):
    if kind is None:
        return None
    if kind == "stalled":
        return StalledReceiver(user)
    if kind == "slow":
        return SlowReceiver(user, recycle_delay_us=2_000.0, min_poll_interval_us=500.0)
    if kind == "leaky":
        return LeakyReceiver(user)
    raise ValueError(f"unknown sick fault {kind!r}; pick from {SICK_FAULTS}")


def run_overload(
    scenario: OverloadScenario,
    policy: str = POLICY_DROP,
    credit: bool = False,
    seed: int = 0x0E12,
) -> OverloadResult:
    """Run ``scenario`` once under ``policy`` (and optionally credit flow)."""
    from ..ethernet import SwitchedNetwork
    from ..hw import PENTIUM_120

    sim = Simulator()
    registry = RngRegistry(seed)
    net = SwitchedNetwork(sim)
    rx_cpu = (PENTIUM_120 if scenario.receiver_cpu_factor == 1.0
              else PENTIUM_120.scaled(scenario.receiver_cpu_factor))
    rx_host = net.add_host("rx", rx_cpu)
    monitor = HealthMonitor(sim, HealthConfig(policy=policy),
                            name="rx.health")

    am_config = AmConfig(credit_flow=credit)
    rx_am_config = AmConfig(credit_flow=credit,
                            dispatch_overhead_us=scenario.dispatch_overhead_us)
    endpoint_config = _receiver_endpoint_config(scenario)

    expected = scenario.healthy_senders * scenario.messages
    #: per-sender dispatch logs at the receiver, for the PR-1 invariants
    delivered: Dict[int, List[int]] = {i: [] for i in range(scenario.healthy_senders)}
    delivered_bytes = [0]
    all_done = sim.event(name="overload.done")

    def make_handler():
        def handler(ctx) -> None:
            sender, index = ctx.args[0], ctx.args[1]
            delivered[sender].append(index)
            delivered_bytes[0] += len(ctx.data)
            if (sum(len(v) for v in delivered.values()) == expected
                    and not all_done.triggered):
                all_done.succeed(sim.now)
        return handler

    healthy_sender_ams: List[AmEndpoint] = []
    receiver_ams: List[AmEndpoint] = []

    def receiver(node: int) -> AmEndpoint:
        user_rx = rx_host.create_endpoint(config=endpoint_config,
                                          rx_buffers=scenario.rx_buffers)
        am_rx = AmEndpoint(node, user_rx, config=rx_am_config)
        am_rx.register_handler(1, make_handler())
        receiver_ams.append(am_rx)
        monitor.watch(user_rx.endpoint)
        return am_rx

    # one endpoint all senders share, or one per healthy pair
    shared = receiver(0) if scenario.shared_receiver else None
    for i in range(scenario.healthy_senders):
        host = net.add_host(f"s{i}", PENTIUM_120)
        user = host.create_endpoint(rx_buffers=32)
        am_rx = shared or receiver(100 + i)
        ch_rx, ch_s = net.connect(am_rx.user, user)
        am_rx.connect_peer(1 + i, ch_rx)
        am = AmEndpoint(1 + i, user, config=am_config)
        am.connect_peer(am_rx.node, ch_s)
        healthy_sender_ams.append(am)

    # -- the sick endpoint and its blasters --------------------------------
    sick_fault = None
    sick_user = None
    blaster_stop = [False]
    if scenario.blasters:
        sick_user = rx_host.create_endpoint(config=endpoint_config,
                                            rx_buffers=scenario.rx_buffers)
        monitor.watch(sick_user.endpoint)
        sick_fault = _attach_sick_fault(scenario.sick_fault, sick_user)

        def sick_consumer():
            while True:
                yield from sick_user.recv()

        sim.process(sick_consumer(), name="overload.sick-consumer")
        for j in range(scenario.blasters):
            host = net.add_host(f"b{j}", PENTIUM_120)
            user = host.create_endpoint(rx_buffers=8)
            _ch_rx, ch_b = net.connect(sick_user, user)
            payload = bytes((j + k) % 256 for k in range(scenario.blaster_payload_bytes))

            def blaster(user=user, channel=ch_b, payload=payload):
                while not blaster_stop[0]:
                    yield from user.send(channel, payload)

            sim.process(blaster(), name=f"overload.blaster{j}")

    # -- healthy traffic ----------------------------------------------------
    def traffic(sender: int, am: AmEndpoint):
        peer = next(iter(am.peers))
        for k in range(scenario.messages):
            data = bytes((sender + k + b) % 256 for b in range(scenario.payload_bytes))
            yield from am.request(peer, 1, args=(sender, k), data=data)

    for i, am in enumerate(healthy_sender_ams):
        sim.process(traffic(i, am), name=f"overload.traffic{i}")

    def controller():
        yield all_done
        # healthy work is delivered: stop the load and let the sim drain
        blaster_stop[0] = True
        monitor.stop()
        for am in healthy_sender_ams + receiver_ams:
            am.shutdown()

    sim.process(controller(), name="overload.controller")
    with net:
        sim.run(until=scenario.time_limit_us)

    completed = bool(all_done.triggered)
    completion_us = all_done.value if completed else scenario.time_limit_us

    # -- invariants (the PR-1 trio, on the healthy streams only) ------------
    violations = check_delivery(delivered, scenario.messages, completed,
                                scenario.time_limit_us)
    total_delivered = sum(len(v) for v in delivered.values())

    goodput_mbps = (delivered_bytes[0] * 8.0) / completion_us if completion_us else 0.0
    backend_drops = rx_host.backend.drop_stats()
    backend_drops["rx_ring_overflows"] = total(rx_host.backend.nics, "rx_overflow_drops")

    fault_stats = {}
    if sick_fault is not None:
        fault_stats[scenario.sick_fault] = read(sick_fault)
        sick_fault.restore()

    return OverloadResult(
        scenario=scenario.name,
        policy=policy,
        credit=credit,
        completed=completed,
        violations=violations,
        completion_time_us=completion_us,
        healthy_delivered=total_delivered,
        healthy_expected=expected,
        healthy_goodput_mbps=goodput_mbps,
        retransmissions=total(healthy_sender_ams, "retransmissions"),
        timeouts=total(healthy_sender_ams, "timeouts"),
        credit_stalls=total(healthy_sender_ams, "credit_stalls"),
        backend_drops=backend_drops,
        endpoint_rows=monitor.report(),
        fault_stats=fault_stats,
        sim_events=sim.events_processed,
    )


def render_overload_table(results: Sequence[OverloadResult]) -> str:
    """One row per run, via the standard report table."""
    from ..analysis.report import format_table

    rows = []
    for r in results:
        drops = r.backend_drops
        rows.append([
            r.scenario,
            r.mode,
            "ok" if r.ok else "FAIL",
            f"{r.healthy_delivered}/{r.healthy_expected}",
            r.completion_time_us / 1000.0,
            f"{r.healthy_goodput_mbps:.2f}",
            r.retransmissions,
            r.credit_stalls,
            drops.get("recv_queue_drops", 0),
            drops.get("no_buffer_drops", 0),
            drops.get("quarantine_drops", 0),
            drops.get("rx_ring_overflows", 0),
        ])
    return format_table(
        ("scenario", "mode", "invariants", "dispatched", "time_ms", "goodput_mbps",
         "rexmit", "cr_stall", "rq_drop", "nb_drop", "quar_drop", "ring_drop"),
        rows,
        title="Overload soak report",
    )


def render_endpoint_table(result: OverloadResult) -> str:
    """Per-endpoint health/drop telemetry for one run."""
    from ..analysis.report import format_table

    rows = []
    for row in result.endpoint_rows:
        rows.append([
            row["endpoint"],
            row["state"],
            row["messages_received"],
            f"{row['drop_ewma']:.2f}",
            f"{row['occupancy_ewma']:.2f}",
            row["shed_episodes"],
        ] + [row[counter] for counter in DROP_COUNTERS])
    return format_table(
        ("endpoint", "state", "rx_msgs", "drop_ewma", "occ_ewma", "sheds")
        + DROP_COUNTERS,
        rows,
        title=f"Per-endpoint telemetry — {result.scenario}/{result.mode}",
    )


def _modes(scenario: OverloadScenario) -> Tuple[str, ...]:
    # the incast shape is the fixed-vs-credit demonstration, a sick
    # endpoint the containment-policy one
    return ("drop", "drop+credit") if scenario.shared_receiver else POLICIES


def _run_mode(scenario: OverloadScenario, mode: str, seed: int,
              progress) -> OverloadResult:
    policy, _, credit = mode.partition("+")
    return run_overload(scenario, policy=policy, credit=bool(credit), seed=seed)


def _contained_ok(results: Sequence[OverloadResult]) -> bool:
    # the status-quo baselines (drop policy, fixed senders) are allowed to
    # suffer — that is the demonstration; the suite fails only when a
    # containment run breaks a delivery invariant
    contained = [r for r in results if r.policy != "drop" or r.credit]
    return all(r.ok for r in (contained or results))


SUITE = Suite(
    scenarios=OVERLOAD_SCENARIOS,
    run=_run_mode,
    render=render_overload_table,
    modes=_modes,
    stats=lambda results: "\n".join("\n" + render_endpoint_table(r)
                                    for r in results),
    overrides=frozenset({"messages", "seed"}),
    passed=_contained_ok,
)
