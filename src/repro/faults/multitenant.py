"""Multi-tenant churn soak: QoS isolation under bursty incast overload.

This harness populates hosts with hundreds of tenants (one rx endpoint
through the sharded demux per tenant, one tx endpoint on a sender host)
split across the gold/silver/best-effort tiers of
:mod:`repro.core.tenancy`, and drives the whole population through an
arrive / misbehave / crash / recover churn schedule while a per-host
:class:`~repro.core.health.HealthMonitor` and the cluster-wide
:class:`~repro.core.cluster.ClusterHealthAggregator` contain the damage.

The overload shape is the paper's own failure mode: U-Net is
receiver-paced with no flow control (Section 3.1), so when every sender
bursts at once the receive queue depth decides who drops.  Each tenant's
sender emits a back-to-back burst of ``burst`` messages per period;
gold queues are deep enough to absorb a whole burst, best-effort queues
are not, so the arrival overrun lands exactly where the QoS sizing says
it should — and nowhere else.  The QoS-aware drain then serves classes
in priority order between bursts.

Churn events:

* **misbehave** — the tenant's receiver wedges permanently.  Its queue
  pins full, the watchdog sheds it (best-effort latches outright; paid
  tiers shed under backpressure and are escalated to a latch by the
  aggregator's shed-streak policy), and its traffic stops costing
  service time.
* **crash / recover** — as above, but the tenant restarts after a
  downtime with an advanced incarnation epoch (PR 5's recovery story).
  ``ClusterHealthAggregator.note_incarnation`` converts the latch back
  into a live evaluation, and delivery must resume.

The run emits per-tenant SLO telemetry (goodput, p99 echo RTT,
quarantine time) as a schema-validated JSON artifact
(:data:`MULTITENANT_ARTIFACT`), and checks the isolation invariants:
drop conservation per host (no tenant's drops attributed to another),
healthy tenants never latched and never shed a message, misbehaving
tenants contained, crashed tenants released, gold goodput at least
``min_gold_be_ratio`` times best-effort, and aggregate goodput at least
``min_goodput_ratio`` of the same schedule with churn disabled.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import networks
from ..artifact import Artifact
from ..core import EndpointConfig
from ..core.cluster import ClusterHealthAggregator
from ..core.errors import AdmissionRejected, EndpointError
from ..core.health import (
    HealthConfig,
    HealthMonitor,
    POLICY_BACKPRESSURE,
    STATE_QUARANTINED,
    STATE_SHED,
)
from ..core.tenancy import (
    QOS_BEST_EFFORT,
    QOS_GOLD,
    QOS_SILVER,
    AdmissionConfig,
    AdmissionController,
    qos_class,
)
from ..sim import RngRegistry, Simulator
from ..suite import DEFAULT_SEED, Suite

__all__ = [
    "MULTITENANT_ARTIFACT",
    "MULTITENANT_SCENARIOS",
    "MultitenantScenario",
    "MultitenantResult",
    "multitenant_payload",
    "run_multitenant",
    "render_multitenant_table",
]

_FORMAT = "repro-multitenant-soak/1"

FATE_HEALTHY = "healthy"
FATE_MISBEHAVED = "misbehaved"
FATE_CRASHED = "crashed"
FATE_REJECTED = "rejected"

#: message header: tenant index, sequence number, send timestamp (us)
_HEADER = struct.Struct("!IId")

#: tenant class mix, repeated: 10% gold, 20% silver, 70% best-effort,
#: interleaved so best-effort arrivals keep hitting admission throughout
_QOS_PATTERN = (
    QOS_GOLD, QOS_SILVER, QOS_BEST_EFFORT, QOS_BEST_EFFORT, QOS_SILVER,
    QOS_BEST_EFFORT, QOS_BEST_EFFORT, QOS_BEST_EFFORT, QOS_BEST_EFFORT,
    QOS_BEST_EFFORT,
)


@dataclass
class MultitenantScenario:
    """One reproducible multi-tenant churn schedule."""

    name: str
    description: str
    #: "ethernet" | "atm" (simulated) or "live" (real sockets)
    substrate: str = "ethernet"
    tenants: int = 500
    rx_hosts: int = 2
    sender_hosts: int = 4
    #: back-to-back messages per tenant per period (the incast burst)
    burst: int = 8
    #: number of burst periods the senders run
    periods: int = 8
    send_period_us: float = 8_000.0
    drain_period_us: float = 1_000.0
    #: drain capacity over the expected accepted rate (>1 keeps queues
    #: clear between bursts; the per-burst queue overrun is the overload)
    drain_headroom: float = 1.3
    #: fits the single-cell AAL5 fast path (40B = one cell minus the
    #: trailer) and Fast Ethernet's inline-descriptor path alike, so no
    #: run depends on receive-buffer stocking
    payload_bytes: int = 40
    #: every k-th delivery is echoed for an RTT sample (0 disables)
    echo_every: int = 8
    #: receive-queue depths per tier: gold absorbs a full burst,
    #: best-effort drops most of one — the receiver-paced QoS knob
    gold_depth: int = 16
    silver_depth: int = 6
    be_depth: int = 3
    #: admission: per-host endpoint capacity as a fraction of arrivals,
    #: with a slice reserved for the paid (non-preemptable) tiers
    capacity_frac: float = 0.9
    reserved_fraction: float = 0.12
    misbehave_frac: float = 0.05
    crash_frac: float = 0.04
    #: churn starts this many periods in (after the population settles)
    fault_after_periods: int = 2
    crash_downtime_periods: int = 3
    check_period_us: float = 500.0
    poll_period_us: float = 1_000.0
    #: aggregator escalation: consecutive polls in ``shed`` before a
    #: wedged paid-tier tenant is latched (see ClusterHealthAggregator)
    escalate_shed_after: int = 4
    quorum: int = 1
    min_gold_be_ratio: float = 2.0
    min_goodput_ratio: float = 0.8
    #: drain-out periods after the last burst
    tail_periods: int = 2
    #: hard wall bound for the live pump loop
    time_limit_us: float = 30_000_000.0

    @property
    def duration_us(self) -> float:
        return (self.periods + self.tail_periods) * self.send_period_us

    def queue_depth(self, qos: str) -> int:
        if qos == QOS_GOLD:
            return self.gold_depth
        if qos == QOS_SILVER:
            return self.silver_depth
        return self.be_depth


MULTITENANT_SCENARIOS: Dict[str, MultitenantScenario] = {
    scenario.name: scenario
    for scenario in (
        MultitenantScenario(
            "churn-fe", "500 tenants on Fast Ethernet through full churn"),
        MultitenantScenario(
            "churn-atm", "500 tenants on ATM (cell-level) through full churn",
            substrate="atm", periods=5, fault_after_periods=1,
            crash_downtime_periods=2),
        MultitenantScenario(
            "churn-live", "64 tenants on live sockets through full churn",
            substrate="live", tenants=64, rx_hosts=1, sender_hosts=2,
            periods=10, send_period_us=60_000.0, drain_period_us=10_000.0,
            check_period_us=10_000.0, poll_period_us=20_000.0,
            fault_after_periods=2, crash_downtime_periods=4),
        MultitenantScenario(
            "churn-bench", "reduced deterministic run for the committed baseline",
            tenants=60, rx_hosts=2, sender_hosts=2, periods=6),
    )
}


# --------------------------------------------------------------------- tenants
@dataclass
class _Tenant:
    """Bookkeeping for one tenant (shared by the sim and live runners)."""

    index: int
    tenant: str
    qos: str
    host: str
    fate: str = FATE_HEALTHY
    user: object = None          # rx-side UserEndpoint / LiveUserEndpoint
    tx_user: object = None       # tx-side endpoint on a sender host
    ch_rx: int = 0               # echo channel (rx -> tx)
    ch_tx: int = 0               # data channel (tx -> rx)
    record: object = None        # EndpointHealth
    incarnation: int = 1
    stalled: bool = False
    stalled_at: Optional[float] = None
    restarted_at: Optional[float] = None
    recovered_at: Optional[float] = None
    sent: int = 0
    delivered: int = 0
    delivered_bytes: int = 0
    delivered_after_restart: int = 0
    rtt_samples: List[float] = field(default_factory=list)

    @property
    def admitted(self) -> bool:
        return self.user is not None


@dataclass
class _HostState:
    """One rx host's serving state."""

    name: str
    backend: object
    admission: AdmissionController
    monitor: HealthMonitor
    #: the host's application-side endpoint constructor
    #: (``Host.create_endpoint`` / ``LiveBackend.create_user_endpoint``)
    create_endpoint: Callable
    by_class: Dict[str, List[_Tenant]] = field(default_factory=dict)
    rr: Dict[str, int] = field(default_factory=dict)
    budget: int = 1

    def add(self, tenant: _Tenant) -> None:
        self.by_class.setdefault(tenant.qos, []).append(tenant)
        self.rr.setdefault(tenant.qos, 0)


@dataclass
class _Outcome:
    """Raw result of one run, before invariant evaluation."""

    tenants: List[_Tenant]
    hosts: List[_HostState]
    aggregator: ClusterHealthAggregator
    duration_us: float
    now: float
    completed: bool
    #: events the simulator processed (zero for live runs)
    sim_events: int = 0

    def delivered_bytes(self) -> int:
        return sum(t.delivered_bytes for t in self.tenants)


def _payload(index: int, seq: int, now_us: float, size: int) -> bytes:
    head = _HEADER.pack(index, seq & 0xFFFFFFFF, now_us)
    return head.ljust(size, b"\x00")


def _rx_config(scenario: MultitenantScenario, qos: str) -> EndpointConfig:
    # payloads are inline (<= SMALL_MESSAGE_MAX), so the buffer area only
    # backs echo sends; the receive-queue depth is the QoS knob
    return EndpointConfig(num_buffers=8, buffer_size=64, send_queue_depth=16,
                          recv_queue_depth=scenario.queue_depth(qos),
                          free_queue_depth=8)


_TX_CONFIG = EndpointConfig(num_buffers=24, buffer_size=64,
                            send_queue_depth=16, recv_queue_depth=16,
                            free_queue_depth=8)


def _health_config(scenario: MultitenantScenario, qos: str) -> HealthConfig:
    # detection keys on *sustained* queue occupancy: burst drops are the
    # designed overload (spiky, self-clearing), a pinned-full queue is a
    # wedged receiver; the drop-rate trigger is effectively disabled
    return qos_class(qos).health_config(
        check_period_us=scenario.check_period_us,
        drop_rate_high=1e9, drop_rate_low=1.0,
        occupancy_high=0.9, occupancy_low=0.5,
        min_unhealthy_checks=3)


def _admission_config(scenario: MultitenantScenario, arrivals: int) -> AdmissionConfig:
    return AdmissionConfig(
        max_endpoints=max(1, int(scenario.capacity_frac * arrivals)),
        reserved_fraction=scenario.reserved_fraction)


def _pick_churn(scenario: MultitenantScenario, tenants: Sequence[_Tenant],
                registry: RngRegistry):
    """Assign misbehave/crash fates among admitted tenants and schedule
    the event times (relative to run start)."""
    rng = registry.stream("multitenant.churn")
    admitted = [t for t in tenants if t.admitted]
    k_mis = int(round(scenario.misbehave_frac * len(admitted)))
    k_crash = int(round(scenario.crash_frac * len(admitted)))
    chosen = rng.sample(admitted, min(len(admitted), k_mis + k_crash))
    events: List[Tuple[float, str, _Tenant]] = []
    base = scenario.fault_after_periods * scenario.send_period_us
    downtime = scenario.crash_downtime_periods * scenario.send_period_us
    for t in chosen[:k_mis]:
        t.fate = FATE_MISBEHAVED
        events.append((base + rng.uniform(0.0, 0.5 * scenario.send_period_us),
                       "stall", t))
    for t in chosen[k_mis:]:
        t.fate = FATE_CRASHED
        at = base + rng.uniform(0.0, 0.5 * scenario.send_period_us)
        events.append((at, "stall", t))
        events.append((at + downtime, "restart", t))
    events.sort(key=lambda e: e[0])
    return events


def _apply_churn_event(kind: str, tenant: _Tenant, now: float,
                       aggregator: ClusterHealthAggregator) -> None:
    if kind == "stall":
        tenant.stalled = True
        if tenant.stalled_at is None:
            tenant.stalled_at = now
    else:  # restart: new incarnation, cluster-wide re-evaluation
        tenant.stalled = False
        tenant.incarnation += 1
        tenant.restarted_at = now
        aggregator.note_incarnation(tenant.tenant, tenant.incarnation)


def _set_budget(scenario: MultitenantScenario, host: _HostState) -> None:
    """Drain capacity from the *admitted* population: one pass clears a
    whole burst's accepted load (each burst clipped by queue depth), so
    queues sit full only between a burst and the next drain pass.  The
    overload lives at the arrival instant — the per-burst queue overrun
    — not in service starvation; a queue that *stays* full is therefore
    a wedged receiver, which is exactly what the watchdog keys on."""
    accepted = sum(
        min(scenario.burst, scenario.queue_depth(qos)) * len(tens)
        for qos, tens in host.by_class.items())
    host.budget = max(1, int(math.ceil(accepted * scenario.drain_headroom)))


def _drain_pass(scenario: MultitenantScenario, host: _HostState,
                now: float, echoes: List[Tuple[_Tenant, bytes]]) -> int:
    """One QoS-aware service pass: classes in priority order, round-robin
    within a class, skipping wedged receivers (their queue is the
    detection signal).  Returns messages served."""
    budget = host.budget
    served = 0
    for qos in (QOS_GOLD, QOS_SILVER, QOS_BEST_EFFORT):
        tens = host.by_class.get(qos)
        if not tens:
            continue
        n = len(tens)
        start = host.rr[qos]
        progressed = True
        while budget > 0 and progressed:
            progressed = False
            for j in range(n):
                if budget <= 0:
                    break
                t = tens[(start + j) % n]
                if t.stalled or t.user is None:
                    continue
                msg = t.user.poll()
                if msg is None:
                    continue
                progressed = True
                budget -= 1
                served += 1
                t.delivered += 1
                t.delivered_bytes += len(msg.data)
                if t.restarted_at is not None:
                    t.delivered_after_restart += 1
                    if t.recovered_at is None:
                        t.recovered_at = now
                if scenario.echo_every and t.delivered % scenario.echo_every == 0:
                    echoes.append((t, msg.data[:_HEADER.size]))
        host.rr[qos] = (start + 1) % n
    return served


def _record_echo(t: _Tenant, data: bytes, now: float) -> None:
    _idx, _seq, sent_at = _HEADER.unpack_from(data)
    t.rtt_samples.append(now - sent_at)


# ------------------------------------------------------------------ population
def _populate(scenario: MultitenantScenario, seed: int, add_node: Callable,
              connect: Callable, manual: bool):
    """Build one run's population, on any substrate.

    Receive hosts with admission control and a health monitor each,
    sender hosts, then every tenant in index order — admitted (endpoint
    pair, channel pair, health record) or refused — and the churn fates
    drawn over the admitted.  ``add_node(name)`` attaches a host and
    returns ``(backend, create_endpoint)``; ``connect`` is the network's
    channel service; ``manual`` says whether the runner steps the health
    monitors itself (wall clock) or the simulator does.  Returns
    ``(aggregator, hosts, tenants, events)``.
    """
    registry = RngRegistry(seed)
    aggregator = ClusterHealthAggregator(
        quorum=scenario.quorum,
        escalate_shed_after=scenario.escalate_shed_after)

    hosts: List[_HostState] = []
    arrivals_per_host = int(math.ceil(scenario.tenants / scenario.rx_hosts))
    for i in range(scenario.rx_hosts):
        backend, create_endpoint = add_node(f"rx{i}")
        backend.admission = AdmissionController(
            _admission_config(scenario, arrivals_per_host))
        monitor = HealthMonitor(
            backend.sim, HealthConfig(policy=POLICY_BACKPRESSURE,
                                      check_period_us=scenario.check_period_us),
            name=f"rx{i}.health", manual=manual)
        aggregator.attach_host(f"rx{i}", monitor)
        hosts.append(_HostState(name=f"rx{i}", backend=backend,
                                admission=backend.admission, monitor=monitor,
                                create_endpoint=create_endpoint))
    senders = [add_node(f"tx{i}")[1] for i in range(scenario.sender_hosts)]

    tenants: List[_Tenant] = []
    for i in range(scenario.tenants):
        qos = _QOS_PATTERN[i % len(_QOS_PATTERN)]
        host = hosts[i % scenario.rx_hosts]
        t = _Tenant(index=i, tenant=f"t{i:04d}", qos=qos, host=host.name)
        tenants.append(t)
        try:
            t.user = host.create_endpoint(
                config=_rx_config(scenario, qos), rx_buffers=2,
                tenant=t.tenant, qos=qos)
        except AdmissionRejected:
            t.fate = FATE_REJECTED
            continue
        t.tx_user = senders[i % scenario.sender_hosts](
            config=_TX_CONFIG, rx_buffers=0)
        t.ch_rx, t.ch_tx = connect(t.user, t.tx_user)
        t.record = host.monitor.watch(t.user.endpoint,
                                      config=_health_config(scenario, qos))
        host.add(t)
        aggregator.note_incarnation(t.tenant, t.incarnation)

    for host in hosts:
        _set_budget(scenario, host)
    return aggregator, hosts, tenants, _pick_churn(scenario, tenants, registry)


# ------------------------------------------------------------------ simulation
def _run_sim(scenario: MultitenantScenario, seed: int) -> _Outcome:
    from ..hw import PENTIUM_120

    sim = Simulator()
    net = networks.get(scenario.substrate).build(sim)

    def add_node(name: str):
        host = net.add_host(name, PENTIUM_120)
        return host.backend, host.create_endpoint

    aggregator, hosts, tenants, events = _populate(
        scenario, seed, add_node, net.connect, manual=False)
    t_end = scenario.duration_us

    by_sender: Dict[int, List[_Tenant]] = {}
    for t in tenants:
        if t.admitted:
            by_sender.setdefault(t.index % scenario.sender_hosts, []).append(t)

    def poll_echoes(tens: List[_Tenant]) -> None:
        for t in tens:
            while True:
                msg = t.tx_user.poll()
                if msg is None:
                    break
                _record_echo(t, msg.data, sim.now)

    def pacer(tens: List[_Tenant]):
        for period in range(scenario.periods):
            delay = period * scenario.send_period_us - sim.now
            if delay > 0:
                yield delay
            for t in tens:
                for _k in range(scenario.burst):
                    payload = _payload(t.index, t.sent, sim.now,
                                       scenario.payload_bytes)
                    yield from t.tx_user.send(t.ch_tx, payload)
                    t.sent += 1
            poll_echoes(tens)
        while sim.now < t_end:
            yield scenario.drain_period_us
            poll_echoes(tens)

    def drain(host: _HostState):
        while True:
            yield scenario.drain_period_us
            echoes: List[Tuple[_Tenant, bytes]] = []
            _drain_pass(scenario, host, sim.now, echoes)
            for t, data in echoes:
                try:
                    yield from t.user.send(t.ch_rx, data)
                except EndpointError:
                    pass

    def churn():
        for when, kind, tenant in events:
            if when > sim.now:
                yield when - sim.now
            _apply_churn_event(kind, tenant, sim.now, aggregator)

    def controller():
        while True:
            yield scenario.poll_period_us
            aggregator.poll()

    for idx, tens in sorted(by_sender.items()):
        sim.process(pacer(tens), name=f"tx{idx}.pacer")
    for host in hosts:
        sim.process(drain(host), name=f"{host.name}.drain")
    if events:
        sim.process(churn(), name="multitenant.churn")
    sim.process(controller(), name="multitenant.controller")

    with net:
        sim.run(until=t_end)
    return _Outcome(tenants=tenants, hosts=hosts, aggregator=aggregator,
                    duration_us=t_end, now=sim.now, completed=True,
                    sim_events=sim.events_processed)


# ------------------------------------------------------------------ live
def _run_live(scenario: MultitenantScenario, seed: int) -> _Outcome:
    from ..live.backend import LiveCluster
    from ..live.clock import WallClock
    from ..live.transport import available_transport_kinds, make_transport

    kind = (available_transport_kinds() or ["udp"])[0]
    clock = WallClock()

    with LiveCluster(lambda name: make_transport(kind, name), clock) as cluster:
        def add_node(name: str):
            node = cluster.add_node(name)
            return node, node.create_user_endpoint

        aggregator, hosts, tenants, events = _populate(
            scenario, seed, add_node, cluster.connect, manual=True)
        admitted = [t for t in tenants if t.admitted]

        t0 = clock.now_us()
        t_end = t0 + scenario.duration_us
        t_hard = t0 + scenario.time_limit_us
        burst_idx = 0
        next_drain = t0 + scenario.drain_period_us
        next_check = t0 + scenario.check_period_us
        next_poll = t0 + scenario.poll_period_us
        ev_i = 0

        while True:
            moved = cluster.step()
            now = clock.now_us()
            if now >= t_end or now >= t_hard:
                break
            while ev_i < len(events) and t0 + events[ev_i][0] <= now:
                _when, kind_, tenant_ = events[ev_i]
                _apply_churn_event(kind_, tenant_, now - t0, aggregator)
                ev_i += 1
            if burst_idx < scenario.periods and now >= t0 + burst_idx * scenario.send_period_us:
                for n, t in enumerate(admitted):
                    for _k in range(scenario.burst):
                        payload = _payload(t.index, t.sent, clock.now_us(),
                                           scenario.payload_bytes)
                        try:
                            t.tx_user.send(t.ch_tx, payload)
                        except EndpointError:
                            break  # transport backpressure: shed the rest
                        t.sent += 1
                    if n % 8 == 7:
                        cluster.step()  # keep socket buffers drained
                burst_idx += 1
            if now >= next_drain:
                next_drain += scenario.drain_period_us
                echoes: List[Tuple[_Tenant, bytes]] = []
                for host in hosts:
                    _drain_pass(scenario, host, now - t0, echoes)
                for t, data in echoes:
                    try:
                        t.user.send(t.ch_rx, data)
                    except EndpointError:
                        pass
                for t in admitted:
                    while True:
                        msg = t.tx_user.poll()
                        if msg is None:
                            break
                        _record_echo(t, msg.data, clock.now_us())
            if now >= next_check:
                next_check += scenario.check_period_us
                for host in hosts:
                    host.monitor.step()
            if now >= next_poll:
                next_poll += scenario.poll_period_us
                aggregator.poll()
            if moved == 0:
                clock.sleep_us(200.0)

        # health timestamps are absolute wall times, so SLO math
        # (shed_time of still-open episodes) needs the wall "now"
        completed = clock.now_us() < t_hard
        return _Outcome(tenants=tenants, hosts=hosts, aggregator=aggregator,
                        duration_us=scenario.duration_us,
                        now=clock.now_us(), completed=completed)


# ------------------------------------------------------------------ evaluation
def _p99(samples: Sequence[float]) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return float(ordered[max(0, int(math.ceil(0.99 * len(ordered))) - 1)])


def _goodput_mbps(delivered_bytes: int, duration_us: float) -> float:
    if duration_us <= 0.0:
        return 0.0
    return delivered_bytes * 8.0 / duration_us  # bits per us == Mbit/s


@dataclass
class MultitenantResult:
    """Evaluated outcome of one churn run."""

    scenario: str
    substrate: str
    seed: int
    completed: bool
    duration_us: float
    tenants: int
    admitted: int
    rejected: int
    violations: List[str]
    aggregate: dict
    classes: Dict[str, dict]
    cluster: dict
    fates: Dict[str, int]
    #: recovery-time snapshot over crashed tenants (stall -> first
    #: post-restart delivery)
    recovery: dict
    hosts: List[dict]
    tenant_rows: List[dict]
    #: events the simulator processed, quiet baseline run included
    sim_events: int = 0

    @property
    def ok(self) -> bool:
        return self.completed and not self.violations

    def to_payload(self) -> dict:
        return {
            "format": _FORMAT,
            "scenario": self.scenario,
            "substrate": self.substrate,
            "seed": self.seed,
            "duration_us": self.duration_us,
            "tenants": self.tenants,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "violations": list(self.violations),
            "aggregate": dict(self.aggregate),
            "classes": {name: dict(row) for name, row in self.classes.items()},
            "cluster": dict(self.cluster),
            "fates": dict(self.fates),
            "recovery": dict(self.recovery),
            "hosts": [dict(row) for row in self.hosts],
            "tenant_rows": [dict(row) for row in self.tenant_rows],
        }


def _finalize(scenario: MultitenantScenario, seed: int, outcome: _Outcome,
              baseline: Optional[_Outcome]) -> MultitenantResult:
    baseline_bytes = baseline.delivered_bytes() if baseline else None
    tenants = outcome.tenants
    duration = outcome.duration_us
    violations: List[str] = []
    if not outcome.completed:
        violations.append(
            f"termination: run exceeded the wall limit "
            f"{scenario.time_limit_us:.0f}us")

    # drop conservation per host: every NI/kernel-counted drop must be
    # attributed to exactly one tenant endpoint (isolation of accounting)
    for host in outcome.hosts:
        backend_stats = host.backend.drop_stats()
        local = [t for t in tenants if t.host == host.name and t.admitted]
        for key in ("recv_queue_drops", "no_buffer_drops", "quarantine_drops"):
            attributed = sum(t.user.endpoint.drop_stats()[key] for t in local)
            if backend_stats[key] != attributed:
                violations.append(
                    f"conservation: {host.name} {key} backend={backend_stats[key]}"
                    f" != sum(endpoints)={attributed}")
        if backend_stats["unknown_tag_drops"]:
            violations.append(
                f"conservation: {host.name} saw "
                f"{backend_stats['unknown_tag_drops']} unknown-tag drops")
        host_rejected = sum(1 for t in tenants
                            if t.host == host.name and t.fate == FATE_REJECTED)
        if backend_stats["admission_rejected_drops"] != host_rejected:
            violations.append(
                f"admission: {host.name} counted "
                f"{backend_stats['admission_rejected_drops']} rejections,"
                f" harness saw {host_rejected}")

    for t in tenants:
        if t.fate == FATE_REJECTED:
            if not qos_class(t.qos).preemptable:
                violations.append(
                    f"admission: paid-tier tenant {t.tenant} ({t.qos}) was rejected")
            continue
        state = t.record.state if t.record is not None else "-"
        stats = t.user.endpoint.drop_stats()
        if t.fate == FATE_HEALTHY:
            if state in (STATE_QUARANTINED, STATE_SHED):
                violations.append(
                    f"isolation: healthy tenant {t.tenant} ({t.qos}) ended {state}")
            if stats["quarantine_drops"]:
                violations.append(
                    f"isolation: healthy tenant {t.tenant} shed "
                    f"{stats['quarantine_drops']} messages")
            if t.qos == QOS_GOLD and (stats["recv_queue_drops"]
                                      or stats["no_buffer_drops"]):
                violations.append(
                    f"qos: healthy gold tenant {t.tenant} dropped messages "
                    f"(rq={stats['recv_queue_drops']} nb={stats['no_buffer_drops']})")
        elif t.fate == FATE_MISBEHAVED:
            if state != STATE_QUARANTINED:
                violations.append(
                    f"containment: misbehaving tenant {t.tenant} ({t.qos}) "
                    f"ended {state}, never latched")
        elif t.fate == FATE_CRASHED:
            if state == STATE_QUARANTINED:
                violations.append(
                    f"recovery: crashed tenant {t.tenant} still latched after "
                    f"incarnation advance")
            if t.delivered_after_restart == 0:
                violations.append(
                    f"recovery: crashed tenant {t.tenant} delivered nothing "
                    f"after restart")

    # per-class aggregates over admitted tenants; the QoS SLO compares
    # *healthy* per-tenant goodput so churned tenants don't skew it
    classes: Dict[str, dict] = {}
    for qos in (QOS_GOLD, QOS_SILVER, QOS_BEST_EFFORT):
        members = [t for t in tenants if t.qos == qos and t.admitted]
        healthy = [t for t in members if t.fate == FATE_HEALTHY]
        total_bytes = sum(t.delivered_bytes for t in members)
        healthy_goodput = (
            sum(_goodput_mbps(t.delivered_bytes, duration) for t in healthy)
            / len(healthy) if healthy else 0.0)
        classes[qos] = {
            "tenants": len(members),
            "sent": sum(t.sent for t in members),
            "delivered": sum(t.delivered for t in members),
            "goodput_mbps": _goodput_mbps(total_bytes, duration),
            "per_tenant_goodput_mbps": healthy_goodput,
        }
    gold_gp = classes[QOS_GOLD]["per_tenant_goodput_mbps"]
    be_gp = classes[QOS_BEST_EFFORT]["per_tenant_goodput_mbps"]
    if be_gp > 0.0 and gold_gp < scenario.min_gold_be_ratio * be_gp:
        violations.append(
            f"qos: healthy gold per-tenant goodput {gold_gp:.3f} Mbps < "
            f"{scenario.min_gold_be_ratio:.1f}x best-effort {be_gp:.3f} Mbps")

    delivered_bytes = outcome.delivered_bytes()
    goodput = _goodput_mbps(delivered_bytes, duration)
    baseline_goodput = (_goodput_mbps(baseline_bytes, duration)
                        if baseline_bytes is not None else 0.0)
    ratio = (delivered_bytes / baseline_bytes
             if baseline_bytes else 1.0)
    if baseline_bytes is not None and ratio < scenario.min_goodput_ratio:
        violations.append(
            f"aggregate: churn goodput {goodput:.3f} Mbps is "
            f"{ratio:.2f}x the no-churn baseline "
            f"(floor {scenario.min_goodput_ratio:.2f}x)")

    fates = {FATE_HEALTHY: 0, FATE_MISBEHAVED: 0, FATE_CRASHED: 0,
             FATE_REJECTED: 0}
    for t in tenants:
        fates[t.fate] += 1

    # recovery-time snapshot: stall -> first post-restart delivery, per
    # crashed tenant (the "delivered nothing after restart" invariant
    # above guarantees every crashed tenant has a sample on a clean run)
    recovery_samples = sorted(
        t.recovered_at - t.stalled_at for t in tenants
        if t.fate == FATE_CRASHED
        and t.stalled_at is not None and t.recovered_at is not None)
    recovery = {
        "crashed": fates[FATE_CRASHED],
        "recovered": len(recovery_samples),
        "min_us": float(recovery_samples[0]) if recovery_samples else 0.0,
        "mean_us": (float(sum(recovery_samples) / len(recovery_samples))
                    if recovery_samples else 0.0),
        "max_us": float(recovery_samples[-1]) if recovery_samples else 0.0,
    }

    rows = []
    for t in tenants:
        stats = (t.user.endpoint.drop_stats() if t.admitted
                 else {key: 0 for key in ("recv_queue_drops", "no_buffer_drops",
                                          "quarantine_drops")})
        rows.append({
            "tenant": t.tenant,
            "qos": t.qos,
            "host": t.host,
            "fate": t.fate,
            "state": t.record.state if t.record is not None else "-",
            "sent": t.sent,
            "delivered": t.delivered,
            "goodput_mbps": _goodput_mbps(t.delivered_bytes, duration),
            "p99_rtt_us": _p99(t.rtt_samples),
            "quarantine_us": (t.record.shed_time(outcome.now)
                              if t.record is not None else 0.0),
            "recv_queue_drops": stats["recv_queue_drops"],
            "no_buffer_drops": stats["no_buffer_drops"],
            "quarantine_drops": stats["quarantine_drops"],
        })

    agg = outcome.aggregator
    return MultitenantResult(
        scenario=scenario.name,
        substrate=scenario.substrate,
        seed=seed,
        completed=outcome.completed,
        duration_us=duration,
        tenants=len(tenants),
        admitted=sum(1 for t in tenants if t.admitted),
        rejected=fates[FATE_REJECTED],
        violations=violations,
        aggregate={
            "sent": sum(t.sent for t in tenants),
            "delivered": sum(t.delivered for t in tenants),
            "delivered_bytes": delivered_bytes,
            "goodput_mbps": goodput,
            "baseline_goodput_mbps": baseline_goodput,
            "goodput_ratio": float(ratio),
        },
        classes=classes,
        cluster={
            "coordinated_quarantines": agg.coordinated_quarantines,
            "coordinated_releases": agg.coordinated_releases,
            "escalations": agg.escalations,
            "cluster_quarantined": len(agg.cluster_quarantined),
        },
        fates=fates,
        recovery=recovery,
        hosts=[dict(host.admission.stats(), host=host.name)
               for host in outcome.hosts],
        tenant_rows=rows,
        sim_events=outcome.sim_events + (baseline.sim_events if baseline else 0),
    )


def _run_once(scenario: MultitenantScenario, seed: int) -> _Outcome:
    if scenario.substrate == "live":
        return _run_live(scenario, seed)
    return _run_sim(scenario, seed)


def run_multitenant(scenario: MultitenantScenario, seed: int = DEFAULT_SEED,
                    baseline: bool = True) -> MultitenantResult:
    """Run ``scenario`` (plus, by default, the same schedule with churn
    disabled as the goodput baseline) and evaluate every invariant."""
    quiet = None
    if baseline and (scenario.misbehave_frac or scenario.crash_frac):
        quiet = _run_once(replace(scenario, misbehave_frac=0.0, crash_frac=0.0),
                          seed)
    outcome = _run_once(scenario, seed)
    return _finalize(scenario, seed, outcome, quiet)


# ------------------------------------------------------------------ reporting
def render_multitenant_table(results: Sequence[MultitenantResult]) -> str:
    """Per-class SLO summary for each run, plus violations."""
    from ..analysis.report import format_table

    rows = []
    for r in results:
        for qos in (QOS_GOLD, QOS_SILVER, QOS_BEST_EFFORT):
            cls = r.classes[qos]
            rows.append([
                r.scenario,
                "ok" if r.ok else "FAIL",
                qos,
                cls["tenants"],
                cls["sent"],
                cls["delivered"],
                f"{cls['per_tenant_goodput_mbps']:.3f}",
                f"{r.aggregate['goodput_ratio']:.2f}",
                r.cluster["coordinated_quarantines"],
                r.cluster["coordinated_releases"],
            ])
    table = format_table(
        ("scenario", "invariants", "class", "tenants", "sent", "delivered",
         "tenant_mbps", "vs_base", "quarantines", "releases"),
        rows,
        title="Multi-tenant churn soak",
    )
    lines = [table]
    for r in results:
        rec = r.recovery
        if rec.get("crashed"):
            lines.append(
                f"  {r.scenario}: recovery {rec['recovered']}/{rec['crashed']}"
                f" crashed tenants in {rec['min_us']:.0f}-{rec['max_us']:.0f}us"
                f" (mean {rec['mean_us']:.0f}us)")
    return "\n".join(lines)


# ------------------------------------------------------------------ artifact
_ROW_TENANT = {
    "tenant": str, "qos": str, "host": str, "fate": str, "state": str,
    "sent": int, "delivered": int, "goodput_mbps": float,
    "p99_rtt_us": float, "quarantine_us": float,
    "recv_queue_drops": int, "no_buffer_drops": int, "quarantine_drops": int,
}

_ROW_CLASS = {
    "tenants": int, "sent": int, "delivered": int,
    "goodput_mbps": float, "per_tenant_goodput_mbps": float,
}

_ROW_HOST = {
    "host": str, "occupancy": int, "max_endpoints": int, "admitted": int,
    "rejected": int, "rejected_by_class": dict, "tenants": int,
}

_RUN_SCHEMA = {
    "format": _FORMAT,
    "scenario": str,
    "substrate": str,
    "seed": int,
    "duration_us": float,
    "tenants": int,
    "admitted": int,
    "rejected": int,
    "violations": [str],
    "aggregate": {
        "sent": int, "delivered": int, "delivered_bytes": int,
        "goodput_mbps": float, "baseline_goodput_mbps": float,
        "goodput_ratio": float,
    },
    "classes": {
        QOS_GOLD: _ROW_CLASS, QOS_SILVER: _ROW_CLASS,
        QOS_BEST_EFFORT: _ROW_CLASS,
    },
    "cluster": {
        "coordinated_quarantines": int, "coordinated_releases": int,
        "escalations": int, "cluster_quarantined": int,
    },
    "fates": {
        FATE_HEALTHY: int, FATE_MISBEHAVED: int, FATE_CRASHED: int,
        FATE_REJECTED: int,
    },
    "recovery": {
        "crashed": int, "recovered": int,
        "min_us": float, "mean_us": float, "max_us": float,
    },
    "hosts": [_ROW_HOST],
    "tenant_rows": [_ROW_TENANT],
}


#: CI telemetry for full runs; the ``churn-bench`` run at seed 7 is
#: committed as ``BENCH_multitenant.json`` and gated with ``diff``
MULTITENANT_ARTIFACT = Artifact(
    format=_FORMAT,
    schema={"runs": [_RUN_SCHEMA]},
    non_empty=("runs",),
)


def multitenant_payload(results: Sequence[MultitenantResult]) -> dict:
    """One artifact document: every run's self-describing payload."""
    return {"format": _FORMAT, "runs": [r.to_payload() for r in results]}


def _run_suite(scenario: MultitenantScenario, progress,
               seed: int = DEFAULT_SEED) -> List[MultitenantResult]:
    if scenario.substrate == "live":
        from ..live import available_transport_kinds

        if not available_transport_kinds():
            progress(f"{scenario.name}: skipped (no live transport on this machine)")
            return []
    progress(f"{scenario.name}: {scenario.tenants} tenants on "
             f"{scenario.substrate} ...")
    return [run_multitenant(scenario, seed=seed)]


def _render_hosts(results: Sequence[MultitenantResult]) -> str:
    return "\n".join(f"\n{r.scenario} hosts:\n"
                     + "\n".join(f"  {host}" for host in r.hosts)
                     for r in results)


SUITE = Suite(
    scenarios=MULTITENANT_SCENARIOS,
    run=_run_suite,
    render=render_multitenant_table,
    stats=_render_hosts,
    overrides=frozenset({"seed"}),
    artifact=MULTITENANT_ARTIFACT,
    payload=lambda results, seed: multitenant_payload(results),
    skipped_by_default=("churn-bench",),
)
