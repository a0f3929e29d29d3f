"""Per-endpoint health monitoring and overload containment.

The paper's U-Net is receiver-paced: when an endpoint's receive or free
queue is empty the NI/kernel silently drops (Section 3), and nothing
upstream reacts.  One dead or slow process can therefore force its
peers into pathological retransmission while its traffic keeps burning
NI firmware / kernel interrupt time — service capacity every *other*
endpoint on the host needs.  This module adds the missing reaction: a
watchdog samples each endpoint's drop counters and queue occupancy into
EWMAs, classifies the endpoint, and applies a containment policy:

* ``drop`` — the paper's status quo: keep counting, keep paying full
  service cost for traffic that will be dropped at the final queue.
* ``backpressure`` — while overloaded, the NI/kernel sheds the
  endpoint's traffic at the demux step (cheap), and restores full
  service once the application drains its queues below the exit
  thresholds (hysteresis).  Drops become a transient, self-relieving
  condition instead of a service-time leak.
* ``quarantine`` — as above, but latched: the endpoint stays shed until
  :meth:`HealthMonitor.release` (an operator action) or until its peer
  proves it restarted (:meth:`HealthMonitor.note_epoch_advance` — a new
  incarnation is a new process, so the latch converts back into a live
  evaluation instead of outliving the process that earned it).

Shedding is implemented by the substrates themselves: both
``UNetFeBackend._rx_handler`` and ``UNetAtmBackend._rx_firmware`` check
``endpoint.quarantined`` right after the demux lookup and drop shed
traffic before any buffer allocation, copy, or DMA work happens.

Multi-tenant additions: :meth:`HealthMonitor.watch` accepts a
per-endpoint :class:`HealthConfig` (QoS tiers carry different policies),
:meth:`HealthMonitor.step` exposes one sampling pass so the live
substrate — whose :class:`~repro.core.clock.ClockShim` cannot host a
watchdog process — can drive the monitor from its polling loop
(``manual=True``), and :meth:`HealthMonitor.quarantine` lets a cluster
controller latch an endpoint directly (coordinated quarantine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from ..sim import Simulator
from .endpoint import Endpoint

__all__ = [
    "POLICY_DROP",
    "POLICY_BACKPRESSURE",
    "POLICY_QUARANTINE",
    "POLICIES",
    "STATE_HEALTHY",
    "STATE_OVERLOADED",
    "STATE_SHED",
    "STATE_QUARANTINED",
    "STATE_PEER_DEAD",
    "HealthConfig",
    "EndpointHealth",
    "HealthMonitor",
]

POLICY_DROP = "drop"
POLICY_BACKPRESSURE = "backpressure"
POLICY_QUARANTINE = "quarantine"
POLICIES = (POLICY_DROP, POLICY_BACKPRESSURE, POLICY_QUARANTINE)

STATE_HEALTHY = "healthy"
#: drops/occupancy above threshold but policy keeps serving (``drop``)
STATE_OVERLOADED = "overloaded"
#: shed under the ``backpressure`` policy (recovers on its own)
STATE_SHED = "shed"
#: shed under the ``quarantine`` policy (latched until release)
STATE_QUARANTINED = "quarantined"
#: verdict fed by the AM liveness detector: one or more of this
#: endpoint's peers is dead (the endpoint itself is served normally;
#: the state surfaces the condition in telemetry and reports)
STATE_PEER_DEAD = "peer_dead"


@dataclass
class HealthConfig:
    """Watchdog thresholds and containment policy."""

    policy: str = POLICY_DROP
    #: sampling period of the watchdog process
    check_period_us: float = 200.0
    #: EWMA weight given to the newest sample (both estimators)
    ewma_alpha: float = 0.4
    #: enter overload when the drop-rate EWMA (service drops per check
    #: period: recv-queue + no-buffer) crosses this ...
    drop_rate_high: float = 2.0
    #: ... or the receive-queue occupancy EWMA crosses this
    occupancy_high: float = 0.9
    #: consecutive bad samples required before the policy fires
    min_unhealthy_checks: int = 2
    #: ``backpressure`` exit thresholds (hysteresis below the entry ones)
    drop_rate_low: float = 0.25
    occupancy_low: float = 0.5

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown containment policy {self.policy!r}")
        if self.check_period_us <= 0.0:
            raise ValueError("check_period_us must be positive")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.min_unhealthy_checks < 1:
            raise ValueError("min_unhealthy_checks must be >= 1")
        if not 0.0 <= self.drop_rate_low <= self.drop_rate_high:
            raise ValueError("need 0 <= drop_rate_low <= drop_rate_high")
        if not 0.0 <= self.occupancy_low <= self.occupancy_high:
            raise ValueError("need 0 <= occupancy_low <= occupancy_high")


class EndpointHealth:
    """The watchdog's record for one endpoint."""

    __slots__ = (
        "endpoint",
        "config",
        "state",
        "drop_ewma",
        "occupancy_ewma",
        "unhealthy_checks",
        "shed_at",
        "shed_episodes",
        "shed_time_us",
        "recovered_at",
        "dead_peers",
        "_last_service_drops",
    )

    def __init__(self, endpoint: Endpoint,
                 config: Optional[HealthConfig] = None) -> None:
        self.endpoint = endpoint
        #: per-endpoint config override (None = the monitor's default);
        #: QoS tiers watch with their own policies on one shared monitor
        self.config = config
        self.state = STATE_HEALTHY
        self.drop_ewma = 0.0
        self.occupancy_ewma = 0.0
        self.unhealthy_checks = 0
        #: sim time the endpoint was last shed (None if never)
        self.shed_at: Optional[float] = None
        self.shed_episodes = 0
        #: total time spent shed/quarantined over completed episodes
        #: (the SLO "quarantine time"; see :meth:`shed_time`)
        self.shed_time_us = 0.0
        self.recovered_at: Optional[float] = None
        #: peer nodes the AM liveness detector has declared dead
        self.dead_peers: set = set()
        self._last_service_drops = self._service_drops()

    def _service_drops(self) -> int:
        """Drops that cost the NI/kernel real service time.

        Quarantine drops are excluded: once shed, the endpoint stops
        generating the very signal that shed it, which is what lets the
        ``backpressure`` EWMAs decay toward recovery.
        """
        return self.endpoint.receive_drops + self.endpoint.no_buffer_drops

    @property
    def is_shed(self) -> bool:
        return self.state in (STATE_SHED, STATE_QUARANTINED)

    def shed_time(self, now: float) -> float:
        """Total shed/quarantine time including a still-open episode."""
        open_episode = (now - self.shed_at) if self.is_shed and self.shed_at is not None else 0.0
        return self.shed_time_us + open_episode

    def sample(self, alpha: float) -> None:
        drops = self._service_drops()
        delta = drops - self._last_service_drops
        self._last_service_drops = drops
        self.drop_ewma += alpha * (delta - self.drop_ewma)
        self.occupancy_ewma += alpha * (self.endpoint.recv_queue_occupancy - self.occupancy_ewma)

    def telemetry(self) -> dict:
        """One row of per-endpoint health telemetry for reports."""
        stats = self.endpoint.drop_stats()
        stats.update(
            endpoint=self.endpoint.id,
            owner=self.endpoint.owner,
            tenant=self.endpoint.tenant,
            qos=self.endpoint.qos,
            state=self.state,
            drop_ewma=self.drop_ewma,
            occupancy_ewma=self.occupancy_ewma,
            shed_episodes=self.shed_episodes,
            shed_time_us=self.shed_time_us,
            messages_received=self.endpoint.messages_received,
            dead_peers=sorted(self.dead_peers),
        )
        return stats


class HealthMonitor:
    """Watchdog applying :class:`HealthConfig` policies to endpoints.

    One monitor typically serves one host (all endpoints of a backend),
    mirroring where the real mechanism would live — the kernel service
    routine or NI firmware.  Endpoints join via :meth:`watch`; the
    monitor process starts lazily with the first one.

    With ``manual=True`` no simulation process is spawned: the owner
    calls :meth:`step` from its own loop.  This is how the live
    substrate runs the watchdog — its clock shim refuses to host
    processes, and live endpoints are polled, never waited on.
    """

    def __init__(self, sim: Simulator, config: Optional[HealthConfig] = None,
                 name: str = "health", manual: bool = False) -> None:
        self.sim = sim
        self.config = config or HealthConfig()
        self.name = name
        self.manual = manual
        self._records: Dict[int, EndpointHealth] = {}
        self._running = False
        self._stopped = False

    # ------------------------------------------------------------- lifecycle
    def watch(self, endpoint: Endpoint,
              config: Optional[HealthConfig] = None) -> EndpointHealth:
        """Start monitoring ``endpoint``; returns its health record.

        ``config`` overrides the monitor default for this endpoint only
        (QoS tiers carry different containment policies)."""
        record = self._records.get(endpoint.id)
        if record is not None and record.endpoint is endpoint:
            if config is not None:
                record.config = config
            return record
        record = EndpointHealth(endpoint, config)
        self._records[endpoint.id] = record
        if not self._running and not self.manual:
            self._running = True
            self.sim.process(self._watchdog(), name=f"{self.name}.watchdog")
        return record

    def unwatch(self, endpoint: Endpoint) -> None:
        self._records.pop(endpoint.id, None)

    def stop(self) -> None:
        """Stop the watchdog process (endpoints keep their last state)."""
        self._stopped = True

    def health_of(self, endpoint: Endpoint) -> Optional[EndpointHealth]:
        record = self._records.get(endpoint.id)
        if record is not None and record.endpoint is endpoint:
            return record
        return None

    def records(self) -> List[EndpointHealth]:
        """All health records, in endpoint-id order."""
        return [self._records[key] for key in sorted(self._records)]

    def _config_for(self, record: EndpointHealth) -> HealthConfig:
        return record.config or self.config

    def _close_shed_episode(self, record: EndpointHealth) -> None:
        if record.shed_at is not None and record.is_shed:
            record.shed_time_us += self.sim.now - record.shed_at

    def _begin_shed(self, record: EndpointHealth, state: str) -> None:
        record.state = state
        record.endpoint.quarantined = True
        record.shed_at = self.sim.now
        record.shed_episodes += 1

    def release(self, endpoint: Endpoint) -> None:
        """Operator action: lift a quarantine (or shed) and start fresh."""
        record = self.health_of(endpoint)
        if record is None:
            return
        self._close_shed_episode(record)
        endpoint.quarantined = False
        record.state = STATE_PEER_DEAD if record.dead_peers else STATE_HEALTHY
        record.unhealthy_checks = 0
        record.drop_ewma = 0.0
        record.occupancy_ewma = 0.0
        record.recovered_at = self.sim.now

    def quarantine(self, endpoint: Endpoint) -> None:
        """Latch ``endpoint`` shed directly (operator or cluster
        controller action), regardless of its local EWMAs."""
        record = self.health_of(endpoint) or self.watch(endpoint)
        if record.state == STATE_QUARANTINED:
            return
        self._close_shed_episode(record)
        self._begin_shed(record, STATE_QUARANTINED)

    def note_epoch_advance(self, endpoint: Endpoint) -> bool:
        """The endpoint's peer restarted with a new incarnation epoch.

        A quarantine latch — or a shed verdict still decaying — earned
        by a previous incarnation must not outlive the process that
        earned it: convert it back into a live evaluation with fresh
        EWMAs (returns True when a shed/latched state was lifted).  The
        watchdog re-latches within ``min_unhealthy_checks`` periods if
        the *new* incarnation still misbehaves — released or re-latched,
        never stuck."""
        record = self.health_of(endpoint)
        if record is None:
            return False
        if record.is_shed:
            self.release(endpoint)
            return True
        # not shed (yet): still wipe the dead incarnation's evaluation —
        # EWMAs and consecutive-check counts are evidence against a
        # process that no longer exists, and left in place they latch
        # the new process within its first check period
        record.unhealthy_checks = 0
        record.drop_ewma = 0.0
        record.occupancy_ewma = 0.0
        return False

    # ------------------------------------------------------ peer liveness
    def report_peer_dead(self, endpoint: Endpoint, peer_node) -> None:
        """Verdict from the AM liveness detector: ``endpoint`` has lost
        its peer ``peer_node`` (ack starvation or missed heartbeats).
        The endpoint itself keeps being served — the state is a signal,
        not a containment action — but overload states take precedence
        in ``state`` if both conditions hold."""
        record = self.health_of(endpoint) or self.watch(endpoint)
        record.dead_peers.add(peer_node)
        if record.state == STATE_HEALTHY:
            record.state = STATE_PEER_DEAD

    def report_peer_alive(self, endpoint: Endpoint, peer_node) -> None:
        """The peer came back (its HELLO arrived): clear the verdict."""
        record = self.health_of(endpoint)
        if record is None:
            return
        record.dead_peers.discard(peer_node)
        if record.state == STATE_PEER_DEAD and not record.dead_peers:
            record.state = STATE_HEALTHY

    # -------------------------------------------------------------- watchdog
    def step(self) -> None:
        """One sampling + classification pass over every record.

        The simulated watchdog process calls this every
        ``check_period_us``; a live owner calls it from its polling
        loop (``manual=True``)."""
        for record in list(self._records.values()):
            record.sample(self._config_for(record).ewma_alpha)
            self._classify(record)

    def _watchdog(self) -> Generator:
        while not self._stopped:
            yield self.config.check_period_us
            self.step()
        self._running = False

    def _classify(self, record: EndpointHealth) -> None:
        cfg = self._config_for(record)
        if record.state == STATE_QUARANTINED:
            return  # latched: only release()/note_epoch_advance() exits
        overloaded = (record.drop_ewma >= cfg.drop_rate_high
                      or record.occupancy_ewma >= cfg.occupancy_high)
        baseline = STATE_PEER_DEAD if record.dead_peers else STATE_HEALTHY
        if record.state == STATE_SHED:
            if (record.drop_ewma <= cfg.drop_rate_low
                    and record.occupancy_ewma <= cfg.occupancy_low):
                self._close_shed_episode(record)
                record.endpoint.quarantined = False
                record.state = baseline
                record.unhealthy_checks = 0
                record.recovered_at = self.sim.now
            return
        if not overloaded:
            record.unhealthy_checks = 0
            if record.state == STATE_OVERLOADED:
                record.state = baseline
            return
        record.unhealthy_checks += 1
        if record.unhealthy_checks < cfg.min_unhealthy_checks:
            return
        if cfg.policy == POLICY_DROP:
            record.state = STATE_OVERLOADED
        elif cfg.policy == POLICY_BACKPRESSURE:
            self._begin_shed(record, STATE_SHED)
        else:  # POLICY_QUARANTINE
            self._begin_shed(record, STATE_QUARANTINED)

    # ------------------------------------------------------------- reporting
    def report(self) -> List[dict]:
        """Per-endpoint telemetry rows, in endpoint-id order."""
        return [self._records[key].telemetry() for key in sorted(self._records)]
