"""HealthMonitor containment decisions are substrate-invariant.

The watchdog reads only the unified drop vocabulary and queue occupancy
every endpoint exposes, so driving the *same* overload shape through
U-Net/ATM and U-Net/FE must produce the same decision trajectory:
backpressure sheds and then recovers once the application drains
(hysteresis), quarantine latches until an operator release — on both
substrates, even though their service timings differ.
"""

import pytest

from repro import networks
from repro.core import EndpointConfig
from repro.core.health import (
    POLICY_BACKPRESSURE,
    POLICY_QUARANTINE,
    STATE_HEALTHY,
    STATE_QUARANTINED,
    STATE_SHED,
    HealthConfig,
    HealthMonitor,
)
from repro.hw import PENTIUM_120
from repro.sim import Simulator

CHECK_US = 100.0
FLOOD = 80
_HEALTH_KW = dict(check_period_us=CHECK_US,
                  drop_rate_high=2.0, drop_rate_low=0.25,
                  min_unhealthy_checks=2)


def _build(substrate, policy):
    sim = Simulator()
    net = networks.get(substrate).build(sim)
    h0 = net.add_host("n0", PENTIUM_120)
    h1 = net.add_host("n1", PENTIUM_120)
    ep0 = h0.create_endpoint(config=EndpointConfig(num_buffers=64, buffer_size=256,
                                                   send_queue_depth=32,
                                                   recv_queue_depth=32))
    # a shallow, undrained receiver: the canonical overload victim
    ep1 = h1.create_endpoint(config=EndpointConfig(num_buffers=8, buffer_size=256,
                                                   send_queue_depth=4,
                                                   recv_queue_depth=4),
                             rx_buffers=4)
    ch0, _ch1 = net.connect(ep0, ep1)
    monitor = HealthMonitor(sim, HealthConfig(policy=policy, **_HEALTH_KW))
    record = monitor.watch(ep1.endpoint)
    return net, ep0, ep1, ch0, monitor, record


def _overload_run(substrate, policy, drain=True, release=False, until=8000.0):
    """Flood the victim, optionally drain it afterwards; return the
    deduplicated state trajectory plus the final record/endpoint (the
    network closed, its counters still readable)."""
    net, ep0, ep1, ch0, monitor, record = _build(substrate, policy)
    sim = net.sim
    trajectory = []

    def flood():
        for i in range(FLOOD):
            yield from ep0.send(ch0, bytes(32))
        if drain:
            # the application wakes up and empties its receive queue
            for _ in range(ep1.endpoint.config.recv_queue_depth):
                if ep1.endpoint.recv_queue_occupancy == 0.0:
                    break
                yield from ep1.recv()
        if release:
            # an operator reacts to the quarantine, not a race with it:
            # wait for the latch, let the sender's NI backlog finish
            # shedding against it, have the app drain what is queued,
            # and only then lift the quarantine
            while record.state != STATE_QUARANTINED:
                yield sim.timeout(CHECK_US)
            yield sim.timeout(30 * CHECK_US)
            while ep1.endpoint.recv_queue_occupancy > 0.0:
                yield from ep1.recv()
            monitor.release(ep1.endpoint)

    def watch_states():
        while True:
            yield sim.timeout(CHECK_US)
            if not trajectory or trajectory[-1] != record.state:
                trajectory.append(record.state)

    with net:
        sim.process(flood(), name="flood")
        sim.process(watch_states(), name="watch")
        sim.run(until=until)
        monitor.stop()
    return trajectory, record, ep1.endpoint


@pytest.mark.parametrize("substrate", ["atm", "ethernet"])
def test_backpressure_sheds_and_recovers_on_both_substrates(substrate):
    trajectory, record, endpoint = _overload_run(substrate, POLICY_BACKPRESSURE)
    assert STATE_SHED in trajectory, trajectory
    assert record.state == STATE_HEALTHY, trajectory
    assert not endpoint.quarantined
    assert record.shed_episodes >= 1
    # hysteresis: exactly one shed episode for one overload episode
    assert record.shed_episodes == 1
    assert endpoint.quarantine_drops > 0  # shed traffic was dropped cheaply


@pytest.mark.parametrize("substrate", ["atm", "ethernet"])
def test_quarantine_latches_until_release_on_both_substrates(substrate):
    trajectory, record, endpoint = _overload_run(substrate, POLICY_QUARANTINE)
    assert record.state == STATE_QUARANTINED, trajectory
    assert endpoint.quarantined
    # draining did NOT lift it: latched is latched
    assert trajectory[-1] == STATE_QUARANTINED


@pytest.mark.parametrize("substrate", ["atm", "ethernet"])
def test_release_lifts_a_quarantine_on_both_substrates(substrate):
    _trajectory, record, endpoint = _overload_run(substrate, POLICY_QUARANTINE,
                                                  release=True)
    assert record.state == STATE_HEALTHY
    assert not endpoint.quarantined


def test_decision_trajectories_match_across_substrates():
    """The whole point: same overload, same decisions, any substrate."""
    for policy in (POLICY_BACKPRESSURE, POLICY_QUARANTINE):
        atm, _r, _e = _overload_run("atm", policy)
        fe, _r, _e = _overload_run("ethernet", policy)
        assert atm == fe, f"{policy}: ATM {atm} vs FE {fe}"
