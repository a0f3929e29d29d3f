"""The live cluster's wall-clock runner, on a ManualClock.

A zero-node :class:`LiveCluster` needs no socket: its runner still
pumps (nothing), wakes its ``poll`` waiters and runs its simulator up
to the clock's reading, and an idle pass sleeps, which on a
:class:`ManualClock` is what moves time.  The rules on what a pass
moved run on two nodes over the socket-less mailbox transport.
"""

from repro.am.protocol import decode
from repro.core.clock import ManualClock
from repro.faults import attach_pipeline
from repro.faults.scripted import ScheduledFault, ScriptedStage
from repro.live import LiveCluster
from repro.live.backend import _IDLE_SLEEP_US

from .test_fault_seam import _arrival, _request, _rig


def _cluster(clock):
    def no_transport(name):
        raise AssertionError("a zero-node cluster builds no transport")

    return LiveCluster(no_transport, clock)


class _Pumps:
    """Stands in for an AM endpoint: counts the passes that service it,
    each of which takes ``cost_us`` of the clock, as a real pass does."""

    def __init__(self, clock, cost_us):
        self.clock = clock
        self.cost_us = cost_us
        self.passes = 0

    def service(self):
        self.passes += 1
        self.clock.advance(self.cost_us)
        return 0


def test_a_yielded_delay_resumes_once_the_clock_passes_it():
    clock = ManualClock()
    with _cluster(clock) as cluster:
        woke = []

        def sleeper():
            yield 500.0
            woke.append(clock.now_us())

        cluster.sim.process(sleeper())
        cluster.run(10_000.0, ())
        assert len(woke) == 1 and 500.0 <= woke[0] < 10_000.0
        assert cluster.sim.now == woke[0]


def test_poll_makes_exactly_one_attempt_per_pump():
    clock = ManualClock()
    # a pass costing 100 us: a waiter that slept a small delay instead
    # of the pump's event would retry ~100 times inside one sim.run
    pumps = _Pumps(clock, 100.0)
    with _cluster(clock) as cluster:
        attempts = []

        def attempt():
            attempts.append(pumps.passes)
            return "done" if len(attempts) == 5 else None

        process = cluster.sim.process(cluster.poll(attempt))
        cluster.run(10_000.0, (pumps,))
        assert process.value == "done"
        # the first attempt runs in the first pass's sim.run, before any
        # pump; every later one at the start of the pass after its pump
        assert attempts == [0, 1, 2, 3, 4]
        assert pumps.passes == 5


def test_run_returns_at_until_and_when_nothing_waits():
    clock = ManualClock()
    with _cluster(clock) as cluster:
        def long_sleep():
            yield 20_000.0

        process = cluster.sim.process(long_sleep())
        cluster.run(1_000.0, ())
        assert 1_000.0 <= clock.now_us() < 20_000.0
        assert cluster.sim.now == 1_000.0 and not process.triggered
        cluster.run(30_000.0, ())
        assert process.triggered
        parked = clock.now_us()
        cluster.run(1e9, ())  # nothing left waiting: one pass, no sleep
        assert clock.now_us() == parked


def test_close_closes_the_simulator():
    clock = ManualClock()
    cluster = _cluster(clock)
    sim = cluster.sim

    def forever():
        yield sim.event()

    sim.process(forever())
    cluster.close()
    assert sim.closed and sim.close().processes == 1


def test_a_delayed_datagram_reaches_its_endpoint_when_it_falls_due():
    """The delay is an ordinary heap entry: it bounds the idle sleep, so
    the runner wakes on the due time itself, not on the next multiple of
    ``_IDLE_SLEEP_US`` (no ``service()`` call here but the runner's)."""
    delay = 2.6 * _IDLE_SLEEP_US
    clock = ManualClock()
    cluster, node, a, b, channel = _rig(clock, "busy-poll")
    with cluster:
        delivered = []
        node.trace.subscribe(lambda r: r.step == "deliver" and delivered.append(clock.now_us()))
        stage = ScriptedStage([ScheduledFault("fwd", 1, 0, "delay", delay_us=delay)],
                              node.wire)
        with attach_pipeline(node, [stage]):
            a.send(channel, _request(1, b"late"))
            process = cluster.sim.process(_arrival(cluster, clock, b))
            cluster.run(10_000.0, ())
        assert delivered == [delay]
        assert process.value[1] == delay


def test_a_pass_that_only_flushed_sends_does_not_sleep():
    """A send queued without a kick (as a batched AM endpoint queues one)
    goes out in the next pass's flush; that pass moved a datagram, so the
    next one follows without an idle sleep."""
    clock = ManualClock()
    # node 0's endpoint receives: it is serviced before the flush
    cluster, _node, receiver, sender, _channel = _rig(clock, "batched")
    with cluster:
        channel = next(iter(sender.endpoint.channels))
        process = cluster.sim.process(_arrival(cluster, clock, receiver))
        cluster.run(clock.now_us(), ())  # the waiter parks on the pump
        sender.send(channel, _request(1, b"deferred"), kick=False)
        cluster.run(10_000.0, ())
        message, at = process.value
        assert decode(message.data).data == b"deferred"
        assert at == 0.0  # not _IDLE_SLEEP_US: no idle sleep in between
