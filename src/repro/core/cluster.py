"""Cluster-wide health aggregation and coordinated quarantine.

Per-endpoint :class:`~repro.core.health.HealthMonitor` verdicts are
host-local: host A quarantining tenant T's endpoint says nothing to
host B, which keeps burning service time on the same tenant's traffic.
This module adds the controller tier — deliberately tiny, in the spirit
of the paper's "keep the shared path cheap": hosts register their
monitors, :meth:`ClusterHealthAggregator.poll` merges the per-endpoint
verdicts into a per-tenant cluster verdict, and two coordinated actions
fall out:

* **coordinated quarantine** — when a tenant is quarantined on at least
  ``quorum`` hosts by local evidence, the aggregator latches the
  tenant's remaining endpoints on *every* host (the tenant is
  misbehaving as a workload, not as one endpoint);
* **coordinated release** — when a crashed tenant returns with a new
  incarnation epoch (PR 5's recovery handshake), the aggregator lifts
  the tenant's quarantine latches cluster-wide via
  :meth:`~repro.core.health.HealthMonitor.note_epoch_advance`.  The new
  incarnation starts with a clean evaluation; each host's watchdog
  re-latches locally if the new process still misbehaves.

The aggregator is transport-agnostic: it reads monitors directly, so it
models either a central controller or the converged state of a gossip
exchange.  It never touches the data path — all actions route through
the monitors' existing operator surface.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import ClusterPartitionError
from .health import STATE_QUARANTINED, STATE_SHED, EndpointHealth, HealthMonitor

__all__ = ["ClusterHealthAggregator", "ClusterPartitionMonitor",
           "MODE_NORMAL", "MODE_DEGRADED", "MODE_ISOLATED"]


class ClusterHealthAggregator:
    """Merge host monitors into cluster verdicts; drive coordinated
    quarantine and release."""

    COUNTERS = ("coordinated_quarantines", "coordinated_releases", "escalations")

    def __init__(self, quorum: int = 2,
                 escalate_shed_after: Optional[int] = None) -> None:
        if quorum < 1:
            raise ValueError("quorum must be >= 1")
        if escalate_shed_after is not None and escalate_shed_after < 1:
            raise ValueError("escalate_shed_after must be >= 1 (or None)")
        self.quorum = quorum
        #: when set, an endpoint seen in the self-relieving ``shed``
        #: state for this many consecutive polls is escalated to a
        #: quarantine latch: transient overload relieves itself within a
        #: few polls, so an endpoint that *stays* shed is not overloaded
        #: but dead or wedged — controller policy, not watchdog policy
        self.escalate_shed_after = escalate_shed_after
        self._shed_streak: Dict[Tuple[str, int], int] = {}
        self.escalations = 0
        self._monitors: Dict[str, HealthMonitor] = {}
        #: tenants currently under a cluster-wide latch
        self.cluster_quarantined: set = set()
        #: highest incarnation epoch seen per tenant
        self._epochs: Dict[str, int] = {}
        self.coordinated_quarantines = 0
        self.coordinated_releases = 0

    # ------------------------------------------------------------ membership
    def attach_host(self, host: str, monitor: HealthMonitor) -> None:
        """Register one host's monitor (idempotent per name)."""
        self._monitors[host] = monitor

    # -------------------------------------------------------------- internals
    def _tenant_records(self, tenant: str) -> List[Tuple[HealthMonitor, EndpointHealth]]:
        out = []
        for monitor in self._monitors.values():
            for record in monitor.records():
                if record.endpoint.tenant == tenant:
                    out.append((monitor, record))
        return out

    # ------------------------------------------------------------------ poll
    def poll(self) -> None:
        """One gossip/controller round: escalate endpoints that stay
        shed, then apply coordinated quarantine to tenants past the
        quorum."""
        locally_quarantined: Dict[str, set] = {}
        for host, monitor in self._monitors.items():
            for record in monitor.records():
                if self.escalate_shed_after is not None:
                    key = (host, record.endpoint.id)
                    if record.state == STATE_SHED:
                        streak = self._shed_streak.get(key, 0) + 1
                        self._shed_streak[key] = streak
                        if streak >= self.escalate_shed_after:
                            monitor.quarantine(record.endpoint)
                            self.escalations += 1
                    else:
                        self._shed_streak.pop(key, None)
                if record.state == STATE_QUARANTINED and record.endpoint.tenant:
                    locally_quarantined.setdefault(record.endpoint.tenant, set()).add(host)
        for tenant, hosts in locally_quarantined.items():
            if len(hosts) >= self.quorum and tenant not in self.cluster_quarantined:
                self._quarantine_everywhere(tenant)

    def _quarantine_everywhere(self, tenant: str) -> None:
        self.cluster_quarantined.add(tenant)
        self.coordinated_quarantines += 1
        for monitor, record in self._tenant_records(tenant):
            if record.state != STATE_QUARANTINED:
                monitor.quarantine(record.endpoint)

    # ------------------------------------------------------------ recovery
    def note_incarnation(self, tenant: str, epoch: int) -> int:
        """A tenant endpoint reappeared under incarnation ``epoch``.

        On an epoch *advance* (a genuine restart, not a replay) the
        cluster latch is lifted and every host re-evaluates the tenant
        via :meth:`HealthMonitor.note_epoch_advance`; returns how many
        endpoint latches were released.  Stale or repeated epochs do
        nothing — a replayed HELLO must not unlatch anything."""
        last = self._epochs.get(tenant)
        if last is not None and epoch <= last:
            return 0
        self._epochs[tenant] = epoch
        if last is None:
            # first sighting establishes the baseline; nothing to release
            return 0
        released = 0
        for monitor, record in self._tenant_records(tenant):
            if monitor.note_epoch_advance(record.endpoint):
                released += 1
        # the old incarnation's shed streaks must not escalate the new
        # one: without this, a restart that lands while the endpoint is
        # still merely shed gets latched a poll later with no future
        # epoch advance left to release it
        for host, monitor in self._monitors.items():
            for record in monitor.records():
                if record.endpoint.tenant == tenant:
                    self._shed_streak.pop((host, record.endpoint.id), None)
        if tenant in self.cluster_quarantined:
            self.cluster_quarantined.discard(tenant)
        if released:
            self.coordinated_releases += 1
        return released


# --------------------------------------------------------------- partitions

MODE_NORMAL = "normal"
MODE_DEGRADED = "degraded"
MODE_ISOLATED = "isolated"


class ClusterPartitionMonitor:
    """Partition detection over aggregated reachability evidence.

    Hosts report which peers they can currently reach (fed from fabric
    signaling, failed heartbeats, or collective liveness timeouts); the
    monitor merges the reports into mutual-reachability components and
    applies the classic split-brain policy:

    * one component — every host runs ``normal``;
    * several components — the **majority** side (largest component;
      ties break toward the component holding the first member in sort
      order, so the verdict is deterministic) runs ``degraded`` — it
      keeps serving but knows peers are dark; every **minority** host is
      ``isolated`` and must fail fast: :meth:`check` raises the typed
      :class:`~repro.core.errors.ClusterPartitionError` there.

    Partition and heal instants are recorded (via the injected ``clock``
    callable, usually ``lambda: sim.now`` — no ambient time) and every
    healed partition leaves a recovery snapshot in :attr:`recovery_log`.
    """

    COUNTERS = ("partitioned_at", "evaluations", "recovery_log")

    def __init__(self, members: Iterable[str],
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.members: List[str] = sorted(members)
        if len(self.members) < 2:
            raise ValueError("a partition needs at least two members")
        self._clock = clock or (lambda: 0.0)
        #: host -> peers it currently claims to reach (None = all, the
        #: optimistic default before any evidence arrives)
        self._reach: Dict[str, Optional[set]] = {m: None for m in self.members}
        self.partitioned_at: Optional[float] = None
        #: healed partitions: {"partitioned_at", "healed_at",
        #:  "recovery_us", "minority": [...]}
        self.recovery_log: List[dict] = []
        self._modes: Dict[str, str] = {m: MODE_NORMAL for m in self.members}
        self._minority: List[str] = []
        self.evaluations = 0

    # ------------------------------------------------------------ evidence
    def report_reachability(self, host: str, peers: Iterable[str]) -> None:
        """``host`` claims it can currently reach exactly ``peers``."""
        if host not in self._reach:
            raise ValueError(f"unknown member {host!r}")
        self._reach[host] = {p for p in peers if p in self._reach and p != host}
        self.evaluate()

    def _mutual(self, a: str, b: str) -> bool:
        ra, rb = self._reach[a], self._reach[b]
        return (ra is None or b in ra) and (rb is None or a in rb)

    def _components(self) -> List[List[str]]:
        remaining = set(self.members)
        components: List[List[str]] = []
        while remaining:
            start = min(remaining)
            seen = {start}
            frontier = [start]
            while frontier:
                here = frontier.pop()
                for other in sorted(remaining - seen):
                    if self._mutual(here, other):
                        seen.add(other)
                        frontier.append(other)
            components.append(sorted(seen))
            remaining -= seen
        # majority first; ties break toward the earliest member
        components.sort(key=lambda c: (-len(c), c[0]))
        return components

    # ------------------------------------------------------------ verdicts
    def evaluate(self) -> List[List[str]]:
        """Recompute components, update modes, record transitions."""
        self.evaluations += 1
        components = self._components()
        if len(components) == 1:
            if self.partitioned_at is not None:
                healed_at = self._clock()
                self.recovery_log.append({
                    "partitioned_at": self.partitioned_at,
                    "healed_at": healed_at,
                    "recovery_us": healed_at - self.partitioned_at,
                    "minority": list(self._minority),
                })
                self.partitioned_at = None
            self._minority = []
            self._modes = {m: MODE_NORMAL for m in self.members}
            return components
        if self.partitioned_at is None:
            self.partitioned_at = self._clock()
        majority = components[0]
        self._minority = sorted(m for c in components[1:] for m in c)
        self._modes = {m: MODE_DEGRADED for m in majority}
        self._modes.update({m: MODE_ISOLATED for m in self._minority})
        return components

    def mode(self, host: str) -> str:
        if host not in self._modes:
            raise ValueError(f"unknown member {host!r}")
        return self._modes[host]

    def check(self, host: str) -> None:
        """Fail fast on an isolated (minority-side) host."""
        if self._modes[host] == MODE_ISOLATED:
            component = [m for m in self.members
                         if m == host
                         or (self._modes[m] == MODE_ISOLATED
                             and self._mutual(host, m))]
            raise ClusterPartitionError(
                f"host {host} is on the minority side of a partition",
                host=host, component=component)
