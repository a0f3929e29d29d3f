"""U-Net/OS's fault seam: the one pipeline, on ``LiveBackend._deliver``.

A fault pipeline attaches to a live backend exactly as to a simulated
one (``rx_fault_hooks``), and a delayed datagram waits as an ordinary
heap entry on the cluster's runner (``sim.call_in``) until the runner's
clock reaches it.  Everything runs on a :class:`ManualClock` over the
socket-less mailbox transport of the substrate contract test, so the
clock moves only when a test says or the runner sleeps.
"""

from repro.am.protocol import TYPE_REQUEST, Packet, decode, encode
from repro.core.clock import ManualClock
from repro.faults import attach_pipeline
from repro.faults.crash import CrashFault, EndpointLifecycle, LifecycleStage
from repro.faults.scripted import ScheduledFault, ScriptedStage
from repro.live.backend import LiveCluster
from tests.core.test_substrate_contract import _Mailbox


class _BatchedMailbox(_Mailbox):
    """The mailbox with the two calls the batched doorbell makes."""

    tx_hint = 8

    def send_many_to(self, dest, slices):
        for slice_ in slices:
            self.send(dest, slice_.payload())
        return len(slices)

    def recv_batch_into(self, pool):
        arrived = self.recv_batch()
        slices = pool.take(len(arrived))
        for slice_, raw in zip(slices, arrived):
            slice_.view[:len(raw)] = raw
            slice_.length = len(raw)
        return slices


def _rig(clock, doorbell_mode):
    """Two live nodes, one channel from node 0's endpoint to node 1's."""
    boxes = {}
    transport = _BatchedMailbox if doorbell_mode == "batched" else _Mailbox
    cluster = LiveCluster(lambda name: transport(boxes, name), clock,
                          doorbell_mode=doorbell_mode)
    node = cluster.add_node("h0"), cluster.add_node("h1")
    a, b = (n.create_user_endpoint(rx_buffers=4) for n in node)
    channel, _ = cluster.connect(a, b)
    return cluster, node[1], a, b, channel


def _request(seq, data):
    return encode(Packet(type=TYPE_REQUEST, handler=1, seq=seq, data=data))


def _arrival(cluster, clock, user):
    """Process: the next message ``user`` receives, and the clock's
    reading when a pass found it."""
    message = yield from cluster.poll(user.poll)
    return message, clock.now_us()


def test_a_delay_stage_holds_a_datagram_until_the_clock_passes_its_due_time():
    clock = ManualClock()
    cluster, node, a, b, channel = _rig(clock, "busy-poll")
    with cluster:
        stage = ScriptedStage([ScheduledFault("fwd", 1, 0, "delay", delay_us=100.0)],
                              node.wire)
        with attach_pipeline(node, [stage]) as pipeline:
            a.send(channel, _request(1, b"late"))
            process = cluster.sim.process(_arrival(cluster, clock, b))
            cluster.run(10_000.0, ())
            message, at = process.value
            assert decode(message.data).data == b"late"
            assert at == 100.0  # held until it fell due, not a pass later
            assert (pipeline.injected, pipeline.delivered) == (1, 1)
        assert "_deliver" not in vars(node)  # restored to the plain method


def test_a_delayed_datagram_survives_the_reuse_of_its_pool_slot():
    """Batched ingress lends a pool slot per datagram and takes it back
    after the pass; a datagram the pipeline holds past the pass must be
    its own bytes, not a view of a slot the next datagram overwrites."""
    clock = ManualClock()
    cluster, node, a, b, channel = _rig(clock, "batched")
    with cluster:
        stage = ScriptedStage([ScheduledFault("fwd", 1, 0, "delay", delay_us=50.0)],
                              node.wire)
        with attach_pipeline(node, [stage]) as pipeline:
            def sender():
                a.send(channel, _request(1, b"A" * 32))
                yield from cluster.poll(lambda: pipeline.injected or None)
                a.send(channel, _request(2, b"B" * 32))  # lands in the same slot
                first, _ = yield from _arrival(cluster, clock, b)
                late, _ = yield from _arrival(cluster, clock, b)
                return decode(first.data), decode(late.data)

            process = cluster.sim.process(sender())
            cluster.run(10_000.0, ())
            first, late = process.value
            assert first.data == b"B" * 32
            assert (late.seq, late.data) == (1, b"A" * 32)
        assert node._rx_pool.in_flight_count == 0


def test_a_scripted_drop_ahead_of_a_lifecycle_stage_fires_no_crash():
    """A transmission the wire swallowed never reached the victim, so
    the lifecycle trigger behind the scripted stage must not fire."""
    clock = ManualClock()
    cluster, node, a, b, channel = _rig(clock, "busy-poll")
    with cluster:
        crashes = []
        life = EndpointLifecycle(crash=lambda: crashes.append(clock.now_us()))
        stages = [ScriptedStage([ScheduledFault("fwd", 1, 0, "drop")], node.wire),
                  LifecycleStage([CrashFault("fwd", 1)], node.wire, life.fire)]
        with attach_pipeline(node, stages):
            a.send(channel, _request(1, b"dropped"))
            node.service()
            assert crashes == [] and b.poll() is None
            a.send(channel, _request(0, b"unrelated"))
            node.service()
            assert crashes == [] and life.applied == []
            assert decode(b.poll().data).data == b"unrelated"
