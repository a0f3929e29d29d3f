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

from typing import Dict, List, Optional, Tuple

from .health import STATE_QUARANTINED, STATE_SHED, EndpointHealth, HealthMonitor

__all__ = ["ClusterHealthAggregator"]


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

