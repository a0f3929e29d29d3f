"""Cluster health aggregation: quorum quarantine, shed-streak
escalation, and incarnation-driven release.

The incarnation tests pin the recovery contract: evidence accumulated
against a dead incarnation (a latch, a decaying shed verdict, EWMAs and
consecutive-check counts, a shed streak the controller was counting)
must never condemn the process that replaces it — released or
re-latched on fresh evidence, never stuck.
"""

import pytest

from repro.core import Endpoint, EndpointConfig
from repro.core.cluster import ClusterHealthAggregator
from repro.core.descriptors import RecvDescriptor
from repro.core.health import (
    POLICY_BACKPRESSURE,
    STATE_HEALTHY,
    STATE_QUARANTINED,
    STATE_SHED,
    HealthConfig,
    HealthMonitor,
)
from repro.sim import Simulator

_CONFIG = HealthConfig(policy=POLICY_BACKPRESSURE, check_period_us=100.0,
                       ewma_alpha=1.0, drop_rate_high=1e9, drop_rate_low=1.0,
                       min_unhealthy_checks=2)


def _host(sim, name, tenants):
    """One host: a manual monitor watching one endpoint per tenant."""
    monitor = HealthMonitor(sim, _CONFIG, name=f"{name}.health", manual=True)
    endpoints = {}
    for i, tenant in enumerate(tenants):
        ep = Endpoint(sim, i, EndpointConfig(num_buffers=8, buffer_size=64,
                                             send_queue_depth=4,
                                             recv_queue_depth=4),
                      owner=name, tenant=tenant, qos="best_effort")
        monitor.watch(ep)
        endpoints[tenant] = ep
    return monitor, endpoints


def _fill(ep):
    while not ep.recv_queue.is_full:
        ep.deliver(RecvDescriptor(channel_id=0, length=4, inline=b"full"))


def _drain(ep):
    while ep.poll_receive() is not None:
        pass


def _shed(monitor, ep):
    """Drive one endpoint into STATE_SHED through the real classifier."""
    _fill(ep)
    for _ in range(_CONFIG.min_unhealthy_checks):
        monitor.step()
    record = monitor.health_of(ep)
    assert record.state == STATE_SHED
    return record


# ---------------------------------------------------------------- quorum


def test_quorum_gates_coordinated_quarantine():
    sim = Simulator()
    agg = ClusterHealthAggregator(quorum=2)
    monitors = {}
    endpoints = {}
    for name in ("h0", "h1", "h2"):
        monitors[name], endpoints[name] = _host(sim, name, ["evil", "good"])
        agg.attach_host(name, monitors[name])
    # one host's local verdict is not a cluster verdict
    monitors["h0"].quarantine(endpoints["h0"]["evil"])
    agg.poll()
    assert not agg.cluster_quarantined
    assert monitors["h2"].health_of(endpoints["h2"]["evil"]).state == STATE_HEALTHY
    # a second host reaches the quorum: every host latches the tenant
    monitors["h1"].quarantine(endpoints["h1"]["evil"])
    agg.poll()
    assert agg.cluster_quarantined == {"evil"}
    assert agg.coordinated_quarantines == 1
    for name in ("h0", "h1", "h2"):
        assert monitors[name].health_of(endpoints[name]["evil"]).state == STATE_QUARANTINED
        assert monitors[name].health_of(endpoints[name]["good"]).state == STATE_HEALTHY
    agg.poll()  # idempotent: no double counting
    assert agg.coordinated_quarantines == 1


# ------------------------------------------------------------ escalation


def test_persistent_shed_escalates_to_quarantine():
    sim = Simulator()
    agg = ClusterHealthAggregator(quorum=1, escalate_shed_after=3)
    m0, eps0 = _host(sim, "h0", ["ta"])
    agg.attach_host("h0", m0)
    record = _shed(m0, eps0["ta"])
    agg.poll()
    agg.poll()
    assert record.state == STATE_SHED  # transient overload: tolerated
    assert agg.escalations == 0
    agg.poll()  # still shed on the third poll: wedged, not overloaded
    assert record.state == STATE_QUARANTINED
    assert agg.escalations == 1


def test_recovery_resets_the_shed_streak():
    sim = Simulator()
    agg = ClusterHealthAggregator(quorum=1, escalate_shed_after=2)
    m0, eps0 = _host(sim, "h0", ["ta"])
    agg.attach_host("h0", m0)
    ep = eps0["ta"]
    record = _shed(m0, ep)
    agg.poll()  # streak 1 of 2
    _drain(ep)  # the application catches up; hysteresis exit
    m0.step()
    assert record.state == STATE_HEALTHY
    agg.poll()  # healthy poll clears the streak
    _shed(m0, ep)
    agg.poll()  # streak restarts at 1 — no stale carry-over
    assert agg.escalations == 0
    agg.poll()
    assert agg.escalations == 1


def test_aggregator_validation():
    with pytest.raises(ValueError):
        ClusterHealthAggregator(quorum=0)
    with pytest.raises(ValueError):
        ClusterHealthAggregator(escalate_shed_after=0)


# ---------------------------------------------------------- incarnations


def test_note_incarnation_first_sighting_is_baseline_only():
    sim = Simulator()
    agg = ClusterHealthAggregator(quorum=1)
    m0, eps0 = _host(sim, "h0", ["ta"])
    agg.attach_host("h0", m0)
    m0.quarantine(eps0["ta"])
    # a replayed HELLO (or the first one ever seen) releases nothing
    assert agg.note_incarnation("ta", 5) == 0
    assert m0.health_of(eps0["ta"]).state == STATE_QUARANTINED
    assert agg.note_incarnation("ta", 5) == 0
    assert agg.note_incarnation("ta", 4) == 0
    assert m0.health_of(eps0["ta"]).state == STATE_QUARANTINED


def test_epoch_advance_releases_cluster_wide():
    sim = Simulator()
    agg = ClusterHealthAggregator(quorum=2)
    monitors, endpoints = {}, {}
    for name in ("h0", "h1"):
        monitors[name], endpoints[name] = _host(sim, name, ["ta"])
        agg.attach_host(name, monitors[name])
        monitors[name].quarantine(endpoints[name]["ta"])
    agg.poll()
    assert agg.cluster_quarantined == {"ta"}
    agg.note_incarnation("ta", 1)  # baseline
    released = agg.note_incarnation("ta", 2)  # the restart
    assert released == 2
    assert agg.coordinated_releases == 1
    assert not agg.cluster_quarantined
    for name in ("h0", "h1"):
        record = monitors[name].health_of(endpoints[name]["ta"])
        assert record.state == STATE_HEALTHY
        assert not endpoints[name]["ta"].quarantined


def test_epoch_advance_releases_a_merely_shed_endpoint():
    """A restart that lands while the old incarnation is still in the
    self-relieving ``shed`` state (not yet latched) must also convert
    into a fresh evaluation — the shed verdict is the dead process's."""
    sim = Simulator()
    agg = ClusterHealthAggregator(quorum=1)
    m0, eps0 = _host(sim, "h0", ["ta"])
    agg.attach_host("h0", m0)
    record = _shed(m0, eps0["ta"])
    agg.note_incarnation("ta", 1)
    assert agg.note_incarnation("ta", 2) == 1
    assert record.state == STATE_HEALTHY
    assert not eps0["ta"].quarantined
    assert record.occupancy_ewma == 0.0


def test_epoch_advance_wipes_pre_shed_evidence():
    """Worse than shed: the old incarnation died while the watchdog was
    one bad sample away from latching.  The new incarnation must start
    from zero, not inherit the dead one's EWMAs and check count."""
    sim = Simulator()
    agg = ClusterHealthAggregator(quorum=1)
    m0, eps0 = _host(sim, "h0", ["ta"])
    agg.attach_host("h0", m0)
    ep = eps0["ta"]
    _fill(ep)
    m0.step()  # one bad sample: unhealthy but not yet shed
    record = m0.health_of(ep)
    assert record.state == STATE_HEALTHY
    assert record.unhealthy_checks == 1
    assert record.occupancy_ewma >= 0.9
    agg.note_incarnation("ta", 1)
    agg.note_incarnation("ta", 2)
    assert record.unhealthy_checks == 0
    assert record.occupancy_ewma == 0.0
    assert record.drop_ewma == 0.0
    _drain(ep)  # the new process drains promptly: never condemned
    m0.step()
    assert record.state == STATE_HEALTHY


def test_epoch_advance_clears_the_controller_shed_streak():
    """The controller's escalation counter is evidence too: the old
    incarnation's streak must not push the new one over the edge."""
    sim = Simulator()
    agg = ClusterHealthAggregator(quorum=1, escalate_shed_after=2)
    m0, eps0 = _host(sim, "h0", ["ta"])
    agg.attach_host("h0", m0)
    ep = eps0["ta"]
    _shed(m0, ep)
    agg.poll()  # streak 1 of 2: one more shed poll would escalate
    agg.note_incarnation("ta", 1)
    agg.note_incarnation("ta", 2)  # restart: released, streak wiped
    record = _shed(m0, ep)  # the new incarnation struggles at first
    agg.poll()  # streak restarts at 1 — no escalation yet
    assert record.state == STATE_SHED
    assert agg.escalations == 0
    agg.poll()  # ... but fresh evidence still escalates on its own
    assert record.state == STATE_QUARANTINED
    assert agg.escalations == 1


# ------------------------------------------------- AM recovery regression


def test_am_quarantine_latch_survives_crash_restart_cycle():
    """A quarantined endpoint whose process crashes and returns with an
    advanced incarnation epoch is re-evaluated once the controller
    notes the new epoch (as the multi-tenant soak does) — traffic flows
    again — instead of staying latched forever."""
    from collections import Counter

    from repro.am import AmConfig, AmEndpoint
    from repro.ethernet import SwitchedNetwork
    from repro.hw import PENTIUM_120

    sim = Simulator()
    net = SwitchedNetwork(sim)
    h0 = net.add_host("n0", PENTIUM_120)
    h1 = net.add_host("n1", PENTIUM_120)
    config = EndpointConfig(num_buffers=64, buffer_size=2048,
                            send_queue_depth=32, recv_queue_depth=64)
    ep0 = h0.create_endpoint(config=config, rx_buffers=24, tenant="ta")
    ep1 = h1.create_endpoint(config=config, rx_buffers=24, tenant="ta")
    ch0, ch1 = net.connect(ep0, ep1)
    am_config = AmConfig(recovery=True, window=4, ack_every=1,
                         retransmit_timeout_us=800.0, hello_retry_us=500.0)
    am0 = AmEndpoint(0, ep0, config=am_config)
    am1 = AmEndpoint(1, ep1, config=am_config)
    am0.connect_peer(1, ch0)
    am1.connect_peer(0, ch1)
    monitor = HealthMonitor(sim, _CONFIG, manual=True)
    monitor.watch(ep1.endpoint)
    agg = ClusterHealthAggregator(quorum=1)
    agg.attach_host("n1", monitor)
    agg.note_incarnation("ta", am1.epoch)  # baseline

    counts = Counter()
    am1.register_handler(1, lambda ctx: counts.update([ctx.args[0]]))
    released = []

    def chaos():
        yield sim.timeout(100.0)
        # the watchdog (or the cluster controller) latched the endpoint
        # while its process was wedged; then the process died outright
        monitor.quarantine(ep1.endpoint)
        am1.crash()
        yield sim.timeout(1500.0)
        # new incarnation: the latch converts to a live evaluation
        released.append(agg.note_incarnation("ta", am1.restart()))

    def tx():
        yield sim.timeout(4000.0)  # well after the reconnect handshake
        for i in range(6):
            yield from am0.request(1, 1, args=(i,))

    sim.process(chaos())
    sim.process(tx())
    sim.run(until=30000.0)
    am0.shutdown()
    am1.shutdown()
    sim.run()

    assert released == [1]
    record = monitor.health_of(ep1.endpoint)
    assert record.state == STATE_HEALTHY  # released, not stuck
    assert not ep1.endpoint.quarantined
    assert sorted(counts) == list(range(6))  # traffic flows again
    assert all(n == 1 for n in counts.values())  # exactly once each
