"""Crash/restart recovery on the simulated substrates.

Kill the receiver mid-stream, bring it back as a new incarnation, and
check the delivery contract the recovery extension promises: at-most-once
dispatch (zero duplicates), every send accounted for (delivered or
abandoned, possibly both — never neither), stale-incarnation traffic
fenced, and the sender's liveness verdicts surfaced on its event
stream (``peer_dead`` / ``peer_alive`` records).
"""

from collections import Counter

import pytest

from repro.am import AmConfig, AmEndpoint
from repro.am.am import AmError
from repro.core import EndpointConfig
from repro.core.errors import PeerUnavailableError, StaleEpochError, UNetError
from repro.ethernet import SwitchedNetwork
from repro.hw import PENTIUM_120
from repro.sim import Simulator

CONFIG = EndpointConfig(num_buffers=128, buffer_size=2048,
                        send_queue_depth=64, recv_queue_depth=128)

RECOVERY = dict(recovery=True, window=4, ack_every=1,
                retransmit_timeout_us=800.0, hello_retry_us=500.0)


def _pair(closing, substrate="ethernet", **overrides):
    sim = Simulator()
    if substrate == "atm":
        from repro.atm import AtmNetwork

        net = closing(AtmNetwork(sim))
    else:
        net = closing(SwitchedNetwork(sim))
    h0 = net.add_host("n0", PENTIUM_120)
    h1 = net.add_host("n1", PENTIUM_120)
    ep0 = h0.create_endpoint(config=CONFIG, rx_buffers=48)
    ep1 = h1.create_endpoint(config=CONFIG, rx_buffers=48)
    ch0, ch1 = net.connect(ep0, ep1)
    config = AmConfig(**{**RECOVERY, **overrides})
    am0 = AmEndpoint(0, ep0, config=config)
    am1 = AmEndpoint(1, ep1, config=config)
    am0.connect_peer(1, ch0)
    am1.connect_peer(0, ch1)
    return sim, am0, am1, ep0, ep1


class _SenderLedger:
    """seq -> message-id fate tracking, as the soak harness keeps it, off
    the sender host's event stream."""

    def __init__(self, am):
        self.seq_to_id = {}
        self.abandoned = set()
        self.restarts_seen = 0
        am.trace.subscribe(self.observe)

    def observe(self, record):
        kind = record.step if record.category == "am" else None
        if kind == "abandon":
            i = self.seq_to_id.pop(record.info["seq"], None)
            if i is not None:
                self.abandoned.add(i)
        elif kind == "peer_restart":
            # the fresh incarnation renumbers from zero: old mappings die
            self.seq_to_id.clear()
            self.restarts_seen += 1


def test_crash_requires_recovery_config(closing):
    sim, am0, am1, _ep0, _ep1 = _pair(closing)
    am1.config = AmConfig()  # classic framing, recovery off
    with pytest.raises(AmError):
        am1.crash()
    with pytest.raises(AmError):
        am1.restart()


def test_crashed_incarnation_refuses_to_send(closing):
    sim, am0, am1, _ep0, _ep1 = _pair(closing)
    am1.crash()
    with pytest.raises(StaleEpochError):
        next(am1.request(0, 1, args=(0,)))


@pytest.mark.parametrize("substrate", ["atm", "ethernet"])
def test_crash_restart_exactly_once_with_fates(closing, substrate):
    sim, am0, am1, ep0, ep1 = _pair(closing, substrate)
    counts = Counter()
    am1.register_handler(1, lambda ctx: counts.update([ctx.args[0]]))
    ledger = _SenderLedger(am0)

    sent = []

    def tx():
        for i in range(16):
            seq = yield from am0.request(1, 1, args=(i,))
            ledger.seq_to_id[seq] = i
            sent.append(i)

    def chaos():
        while sum(counts.values()) < 6:
            yield sim.timeout(50.0)
        am1.crash()
        yield sim.timeout(3000.0)
        am1.restart()

    sim.process(tx())
    sim.process(chaos())
    sim.run(until=2_000_000.0)

    assert sent == list(range(16))
    # at-most-once: nothing dispatched twice, across the restart
    assert all(n == 1 for n in counts.values()), counts
    # every send has a fate; ambiguous (both) is legal, neither is not
    assert set(counts) | ledger.abandoned == set(sent)
    assert ledger.restarts_seen == 1
    assert am1.epoch == 1 and am1.restarts == 1
    assert am0._peers_by_node[1].remote_epoch == 1


def test_stale_retransmission_is_fenced(closing):
    """A retransmission that outlives its victim carries the dead
    incarnation's epoch echo and must be dropped as ``stale_epoch``,
    never dispatched by the new incarnation."""
    sim, am0, am1, ep0, ep1 = _pair(closing, window=1)
    counts = Counter()
    am1.register_handler(1, lambda ctx: counts.update([ctx.args[0]]))
    ledger = _SenderLedger(am0)
    armed = []

    def restart_on_timeout(record):
        # restart the victim exactly when the sender's retransmit timer
        # fires: the retransmission that follows is already stamped with
        # the dead incarnation's epoch and lands on the fresh one
        if record.step == "timeout" and armed and am1.crashed:
            armed.clear()
            am1.restart()

    am0.trace.subscribe(restart_on_timeout)

    def tx():
        for i in range(8):
            seq = yield from am0.request(1, 1, args=(i,))
            ledger.seq_to_id[seq] = i

    def chaos():
        while sum(counts.values()) < 3:
            yield sim.timeout(50.0)
        am1.crash()
        armed.append(True)

    sim.process(tx())
    sim.process(chaos())
    sim.run(until=2_000_000.0)

    assert all(n == 1 for n in counts.values()), counts
    assert set(counts) | ledger.abandoned == set(range(8))
    stats = ep1.endpoint.drop_stats()
    assert stats["stale_epoch_drops"] >= 1


def test_peer_death_health_verdict_and_recovery(closing):
    sim, am0, am1, ep0, ep1 = _pair(closing, retransmit_timeout_us=400.0,
                                    dead_after_timeouts=3)
    counts = Counter()
    am1.register_handler(1, lambda ctx: counts.update([ctx.args[0]]))
    events = []
    ep0.host.backend.trace.subscribe(events.append)

    def verdicts():
        return [(r.step, r.info["peer"]) for r in events
                if r.category == "am" and r.step in ("peer_dead", "peer_alive")]

    failures = []

    def tx():
        try:
            for i in range(6):
                yield from am0.request(1, 1, args=(i,))
        except UNetError as exc:
            failures.append(exc)

    am1.crash()
    sim.process(tx())
    sim.run(until=50_000.0)

    # ack starvation declared the peer dead: sends refused, typed error
    assert failures and isinstance(failures[0], PeerUnavailableError)
    assert not am0._peers_by_node[1].alive
    assert verdicts() == [("peer_dead", 1)]
    assert ep0.endpoint.drop_stats()["peer_dead_drops"] >= 1

    am1.restart()
    sim.run(until=100_000.0)

    # the new incarnation's HELLO clears the verdict end to end
    assert am0._peers_by_node[1].alive
    assert verdicts() == [("peer_dead", 1), ("peer_alive", 1)]

    done = []

    def tx2():
        yield from am0.request(1, 1, args=(99,))
        done.append(True)

    sim.process(tx2())
    sim.run(until=150_000.0)
    assert done and counts[99] == 1


def test_blocked_sender_wakes_on_peer_restart(closing):
    """Regression: with a full window at restart time, the reconnect
    plan abandons the old window and must wake the blocked sender —
    otherwise it waits forever for an ack that can never come."""
    sim, am0, am1, _ep0, _ep1 = _pair(closing, window=1, dead_after_timeouts=50)
    counts = Counter()
    am1.register_handler(1, lambda ctx: counts.update([ctx.args[0]]))
    ledger = _SenderLedger(am0)

    am1.crash()  # the receiver is dead before the first send
    done = []

    def tx():
        for i in range(3):
            seq = yield from am0.request(1, 1, args=(i,))
            ledger.seq_to_id[seq] = i
        done.append(True)

    def chaos():
        yield sim.timeout(2500.0)
        am1.restart()

    sim.process(tx())
    sim.process(chaos())
    sim.run(until=500_000.0)

    assert done, "sender hung in the window after the peer restarted"
    assert 0 in ledger.abandoned  # the pre-crash send was never dispatched
    assert counts[1] == 1 and counts[2] == 1
    assert all(n == 1 for n in counts.values())
