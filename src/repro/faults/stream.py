"""The Active Message stream soak: one runner, its rows and its contract.

The chaos, crash and transport soaks all push numbered request streams
from sender nodes into one sink node and hold the result to the same
delivery contract.  This module is the one copy of what they share:
:func:`build_am_star` builds the hosts, endpoints and connected AM
endpoints (the network's driver), and :func:`check_delivery` is the
termination / exactly-once / FIFO / integrity verdict (the overload
soak, which builds its own lopsided cluster, shares only the verdict).

The chaos and transport suites share the runner too: each is a table
of :class:`StreamScenario` rows and a table of ``AmConfig`` modes, and
:func:`run_stream` drives one (row, mode) through seeded fault
pipelines into one :class:`StreamResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import networks
from ..am import AmConfig, AmEndpoint
from ..core import EndpointConfig
from ..sim import RngRegistry
from ..telemetry import total
from .inject import attach_pipeline
from .perturb import BottleneckQueue, LinkPerturbation

__all__ = ["ENDPOINT_CONFIG", "StreamScenario", "StreamResult", "run_stream",
           "build_am_star", "stream_payload", "check_delivery",
           "render_fault_stats"]

#: endpoint sizing of every stream soak node, simulated or live
ENDPOINT_CONFIG = EndpointConfig(num_buffers=128, buffer_size=2048,
                                 send_queue_depth=64, recv_queue_depth=128)


@dataclass
class StreamScenario:
    """One reproducible stream soak: ``senders`` nodes stream numbered
    requests into one sink through seeded fault pipelines."""

    name: str
    description: str
    #: fresh forward-path stages (request direction, attached at the sink;
    #: with several senders that pipeline is the shared uplink)
    fwd_stages: Callable[[], List[LinkPerturbation]]
    #: fresh reverse-path stages (ack / reply direction, one pipeline
    #: attached at each sender)
    rev_stages: Optional[Callable[[], List[LinkPerturbation]]] = None
    substrate: str = "ethernet"
    #: concurrent senders into the one sink (1 = a plain stream)
    senders: int = 1
    #: messages per sender
    messages: int = 80
    payload_bytes: int = 400
    #: every ``rpc_every``-th message of a sender is an RPC round trip
    #: (0: requests only)
    rpc_every: int = 0
    #: simulated time the stream gets before it counts as not completed
    time_limit_us: float = 60_000_000.0


@dataclass
class StreamResult:
    """Outcome and counters of one (scenario, mode) run."""

    scenario: str
    mode: str
    completed: bool
    violations: List[str]
    #: when the last sender finished sending (the time limit if not all did)
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
    fast_retransmits: int
    dup_rx: int
    acks_sent: int
    rtt_samples: int
    #: sender 0's smoothed RTT estimate of the sink (None: no sample)
    srtt_us: Optional[float]
    ecn_marks: int
    ecn_echoes: int
    ecn_backoffs: int
    queue_marked: int
    queue_dropped: int
    fault_stats: Dict[str, dict]
    #: events the simulator processed (exact; the driver times the run)
    sim_events: int

    @property
    def ok(self) -> bool:
        return self.completed and not self.violations


def build_am_star(net, names: Sequence[str], sink: int,
                  config: Optional[AmConfig]) -> Tuple[list, list]:
    """One host and one of the network's AM endpoints per name on ``net``
    (which the caller built and closes; a simulated network or a live
    cluster), node id = position, every other node connected to node
    ``sink``; returns ``(hosts, ams)``."""
    from ..hw import PENTIUM_120

    hosts = [net.add_host(name, PENTIUM_120) for name in names]
    endpoints = [host.create_endpoint(config=ENDPOINT_CONFIG, rx_buffers=48)
                 for host in hosts]
    ams = [net.am_class(node, endpoint, config=config)
           for node, endpoint in enumerate(endpoints)]
    for node, endpoint in enumerate(endpoints):
        if node != sink:
            channel, sink_channel = net.connect(endpoint, endpoints[sink])
            ams[node].connect_peer(sink, channel)
            ams[sink].connect_peer(node, sink_channel)
    return hosts, ams


def stream_payload(i: int, size: int, sender: int = 0) -> bytes:
    """The bytes message ``i`` of ``sender`` carries (checked on arrival)."""
    return bytes((sender * 37 + i + j) % 256 for j in range(size))


def check_delivery(delivered: Mapping[int, Sequence[int]], messages: int,
                   completed: bool, time_limit_us: float,
                   corrupted: Sequence = ()) -> List[str]:
    """The delivery contract of a request stream, as violations.

    ``delivered`` maps each sender to the ids its sink dispatched, in
    dispatch order; every sender sent ids ``0..messages-1`` in order.
    A stream that did not complete is a **termination** violation (the
    per-id checks would only repeat it); a completed one must have
    dispatched every id **exactly once** and in send order (**fifo**).
    ``corrupted`` names dispatches whose payload failed its check
    (**integrity**) and is reported either way.
    """
    if not completed:
        got = sum(len(ids) for ids in delivered.values())
        violations = [f"termination: {got}/{len(delivered) * messages} "
                      f"dispatched at t={time_limit_us:.0f}us"]
    else:
        violations = []
        expected = list(range(messages))
        for sender, ids in sorted(delivered.items()):
            if list(ids) == expected:
                continue
            if sorted(ids) == expected:
                violations.append(f"fifo: sender {sender} dispatch order "
                                  f"differs from send order")
                continue
            seen: set = set()
            dupes = sorted({i for i in ids if i in seen or seen.add(i)})
            missing = sorted(set(expected) - set(ids))
            if dupes:
                violations.append(f"exactly-once: sender {sender} ids "
                                  f"dispatched twice {dupes[:8]}")
            if missing:
                violations.append(f"exactly-once: sender {sender} ids never "
                                  f"dispatched {missing[:8]}")
    if corrupted:
        violations.append(f"integrity: corrupted payload reached the "
                          f"handler for {list(corrupted)[:8]}")
    return violations


def run_stream(scenario: StreamScenario, mode: str, config: AmConfig,
               seed: int) -> StreamResult:
    """Run ``scenario`` once with every endpoint under ``config`` (the
    suite's ``mode``), and check the delivery contract."""
    net = networks.build(scenario.substrate)
    sim = net.sim
    names = ["sink"] + [f"src{s}" for s in range(scenario.senders)]
    (sink_host, *sender_hosts), (sink_am, *sender_ams) = build_am_star(
        net, names, sink=0, config=config)

    registry = RngRegistry(seed)
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

    def rpc_handler(ctx):
        handler(ctx)
        yield from ctx.reply(args=(ctx.args[1] * 2 + 1,))

    sink_am.register_handler(1, handler)
    sink_am.register_handler(2, rpc_handler)

    rpc_errors: List[str] = []
    done_at: List[float] = []

    def traffic(s: int, am: AmEndpoint):
        every = scenario.rpc_every
        for i in range(scenario.messages):
            data = stream_payload(i, scenario.payload_bytes, sender=s)
            if every and i % every == every - 1:
                args, _data = yield from am.rpc(0, 2, args=(s, i), data=data)
                if args[0] != i * 2 + 1:
                    rpc_errors.append(f"rpc {i} returned {args[0]}")
            else:
                yield from am.request(0, 1, args=(s, i), data=data)
        done_at.append(sim.now)

    limit = scenario.time_limit_us
    with net:
        processes = [sim.process(traffic(s, am), name=f"stream.src{s}")
                     for s, am in enumerate(sender_ams)]
        sim.run(until=limit)
        completed = all(p.triggered for p in processes)
        elapsed_us = max(done_at) if completed and done_at else limit
        if completed:
            # drain the retransmission tail so the delivery checks see it all
            for am in sender_ams:
                am.shutdown()
            sink_am.shutdown()
            sim.run(until=min(limit, sim.now + 2_000_000.0))

    got = sum(len(ids) for ids in delivered.values())
    violations = check_delivery(delivered, scenario.messages, completed,
                                limit, integrity_failures)
    violations.extend(rpc_errors)

    queues = [stage for stage in fwd.stages if isinstance(stage, BottleneckQueue)]
    worst_stall = 0.0
    prev_t = 0.0
    for t in delivery_times:
        worst_stall = max(worst_stall, t - prev_t)
        prev_t = t
    fault_stats = {f"pipeline{i}": p.stats() for i, p in enumerate(pipelines)}
    for pipeline in pipelines:
        pipeline.restore()
    return StreamResult(
        scenario=scenario.name,
        mode=mode,
        completed=completed,
        violations=violations,
        elapsed_us=elapsed_us,
        delivered=got,
        messages=scenario.senders * scenario.messages,
        # bits per microsecond == megabits per second; goodput counts
        # payload bytes actually dispatched, not wire traffic
        goodput_mbps=got * scenario.payload_bytes * 8 / max(1.0, elapsed_us),
        worst_stall_us=worst_stall,
        rexmit=total(sender_ams, "retransmissions"),
        timeouts=total(sender_ams, "timeouts"),
        fast_retransmits=total(sender_ams, "fast_retransmits"),
        dup_rx=total(sink_am, "duplicates"),
        acks_sent=total([sink_am, *sender_ams], "acks_sent"),
        rtt_samples=total(sender_ams, "rtt_samples"),
        srtt_us=sender_ams[0].peers[0].srtt,
        ecn_marks=total(sink_am, "ecn_marks"),
        ecn_echoes=total(sink_am, "ecn_echoes"),
        ecn_backoffs=total(sender_ams, "ecn_backoffs"),
        queue_marked=total(queues, "marked"),
        queue_dropped=total(queues, "dropped"),
        fault_stats=fault_stats,
        sim_events=sim.events_processed,
    )


def render_fault_stats(results: Sequence) -> str:
    """The ``--stats`` dump of the runs that attach a fault pipeline."""
    from ..analysis import render_stats

    return "\n".join(f"\n{r.scenario} [{r.mode}] fault pipeline:\n"
                     f"{render_stats(r.fault_stats, indent=1)}"
                     for r in results)
