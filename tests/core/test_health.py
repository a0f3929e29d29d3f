"""Unit tests for the per-endpoint health watchdog and containment."""

import pytest

from repro.core import Endpoint, EndpointConfig
from repro.core.descriptors import RecvDescriptor
from repro.core.health import (
    POLICY_BACKPRESSURE,
    POLICY_QUARANTINE,
    STATE_HEALTHY,
    STATE_OVERLOADED,
    STATE_QUARANTINED,
    STATE_SHED,
    HealthConfig,
    HealthMonitor,
)
from repro.sim import Simulator

CONFIG_KW = dict(check_period_us=100.0,
                 drop_rate_high=2.0, drop_rate_low=0.25,
                 min_unhealthy_checks=2)


def _setup(policy):
    sim = Simulator()
    ep = Endpoint(sim, 0, EndpointConfig(num_buffers=8, buffer_size=256,
                                         send_queue_depth=4, recv_queue_depth=4),
                  owner="test")
    monitor = HealthMonitor(sim, HealthConfig(policy=policy, **CONFIG_KW))
    record = monitor.watch(ep)
    return sim, ep, monitor, record


def _bleed(sim, ep, per_period, periods, period_us=100.0):
    """Process: accrue service drops at a steady rate for some periods."""
    for _ in range(periods):
        yield sim.timeout(period_us)
        ep.recv_queue_drops += per_period


# ---------------------------------------------------------------- config


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        HealthConfig(policy="explode")
    with pytest.raises(ValueError):
        HealthConfig(check_period_us=0.0)
    with pytest.raises(ValueError):
        HealthConfig(ewma_alpha=0.0)
    with pytest.raises(ValueError):
        HealthConfig(min_unhealthy_checks=0)
    with pytest.raises(ValueError):
        HealthConfig(drop_rate_low=5.0, drop_rate_high=2.0)


# ---------------------------------------------------------------- policies


def test_drop_policy_observes_but_never_sheds():
    sim, ep, monitor, record = _setup("drop")
    sim.process(_bleed(sim, ep, per_period=10, periods=6))
    sim.run(until=700.0)
    monitor.stop()
    sim.run()
    assert record.state == STATE_OVERLOADED
    assert not ep.quarantined
    assert record.shed_episodes == 0


def test_backpressure_sheds_then_recovers_with_hysteresis():
    sim, ep, monitor, record = _setup(POLICY_BACKPRESSURE)
    sim.process(_bleed(sim, ep, per_period=10, periods=4))
    sim.run(until=500.0)
    assert record.state == STATE_SHED
    assert ep.quarantined
    assert record.shed_episodes == 1
    # drops stop (the shed path no longer counts service drops), the
    # EWMA decays below the low-water mark, and service resumes
    sim.run(until=2000.0)
    monitor.stop()
    sim.run()
    assert record.state == STATE_HEALTHY
    assert not ep.quarantined
    assert record.recovered_at is not None


def test_quarantine_is_latched_until_release():
    sim, ep, monitor, record = _setup(POLICY_QUARANTINE)
    sim.process(_bleed(sim, ep, per_period=10, periods=4))
    sim.run(until=2000.0)  # long after the EWMAs have decayed
    monitor.stop()
    sim.run()
    assert record.state == STATE_QUARANTINED
    assert ep.quarantined
    monitor.release(ep)
    assert record.state == STATE_HEALTHY
    assert not ep.quarantined
    assert record.drop_ewma == 0.0


def test_occupancy_alone_can_trigger_shedding():
    sim, ep, monitor, record = _setup(POLICY_BACKPRESSURE)
    for _ in range(4):  # fill the receive queue; nobody consumes
        ep.deliver(RecvDescriptor(channel_id=0, length=4, inline=b"full"))
    sim.run(until=500.0)
    monitor.stop()
    sim.run()
    assert record.occupancy_ewma > 0.9
    assert record.state == STATE_SHED


def test_quarantine_drops_do_not_feed_the_drop_ewma():
    sim, ep, monitor, record = _setup(POLICY_BACKPRESSURE)

    def shed_traffic():
        for _ in range(6):
            yield sim.timeout(100.0)
            ep.quarantine_drops += 50  # cheap shed-path drops

    sim.process(shed_traffic())
    sim.run(until=700.0)
    monitor.stop()
    sim.run()
    assert record.drop_ewma == 0.0
    assert record.state == STATE_HEALTHY


def test_brief_blip_below_min_checks_does_not_shed():
    sim, ep, monitor, record = _setup(POLICY_QUARANTINE)

    def one_bad_sample():
        yield sim.timeout(90.0)
        ep.recv_queue_drops += 3  # one warm period, then silence

    sim.process(one_bad_sample())
    sim.run(until=600.0)
    monitor.stop()
    sim.run()
    assert record.state == STATE_HEALTHY
    assert not ep.quarantined


# ---------------------------------------------------------------- plumbing


def test_watch_is_idempotent_and_report_has_drop_vocabulary():
    sim, ep, monitor, record = _setup("drop")
    assert monitor.watch(ep) is record
    monitor.stop()
    sim.run()
    rows = monitor.report()
    assert len(rows) == 1
    row = rows[0]
    assert row["endpoint"] == ep.id
    assert row["state"] == STATE_HEALTHY
    for counter in ("recv_queue_drops", "no_buffer_drops",
                    "unknown_tag_drops", "quarantine_drops"):
        assert counter in row


def test_health_of_knows_watched_endpoints_only():
    sim, ep, monitor, record = _setup("drop")
    assert monitor.health_of(ep) is record
    other = Endpoint(sim, 1, EndpointConfig(num_buffers=8, buffer_size=256), owner="test")
    assert monitor.health_of(other) is None
    monitor.stop()
    sim.run()
