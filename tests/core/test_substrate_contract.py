"""One U-Net contract, held on every substrate.

``core/base.py::UNetBackend`` owns the endpoint lifecycle, admission and
the drop vocabulary; ``core/api.py::UserEndpointBase`` owns the
clock-free half of the application wrapper; ``core/channels.py::
connect_pair`` is the channel service.  The same assertions run here on
U-Net/ATM, U-Net/FE and U-Net/OS — the live substrate on a
``ManualClock`` and a socket-less transport, so nothing waits on a wall
clock or a kernel.
"""

import pytest

from repro.am.protocol import (
    ECN_CE_FLAG,
    TYPE_REQUEST,
    Packet,
    decode,
    encode,
    mark_ce,
    peek_type_seq,
)
from repro.atm import AtmNetwork
from repro.core import (
    DROP_COUNTERS,
    AdmissionConfig,
    AdmissionController,
    AdmissionRejected,
    EndpointConfig,
    EndpointError,
)
from repro.core.clock import ManualClock
from repro.ethernet import SwitchedNetwork
from repro.faults import LinkPerturbation, attach_pipeline
from repro.hw import PENTIUM_120
from repro.live.backend import LiveCluster
from repro.sim import Simulator
from repro.telemetry import collect

SUBSTRATES = ("atm", "ethernet", "live")
CONFIG = EndpointConfig(num_buffers=16, buffer_size=256,
                        send_queue_depth=8, recv_queue_depth=8)


class _Mailbox:
    """A live transport without a socket: datagrams cross a shared dict."""

    def __init__(self, boxes, name):
        self.address = name
        self._boxes = boxes
        boxes[name] = []

    def send(self, dest, frame):
        self._boxes[dest].append(bytes(frame))
        return True

    def recv_batch(self):
        inbox = self._boxes[self.address]
        arrived, inbox[:] = list(inbox), []
        return arrived

    def close(self):
        pass


class _Pair:
    """Two hosts of one substrate behind the calls that differ: how a
    host makes an endpoint, and how a send is carried to completion."""

    def __init__(self, substrate):
        if substrate == "live":
            boxes = {}
            self.net = LiveCluster(lambda name: _Mailbox(boxes, name), ManualClock())
            self.backends = [self.net.add_node("h0"), self.net.add_node("h1")]
            self._create = [b.create_user_endpoint for b in self.backends]
        else:
            self.sim = Simulator()
            self.net = (AtmNetwork if substrate == "atm" else SwitchedNetwork)(self.sim)
            hosts = [self.net.add_host(f"h{i}", PENTIUM_120) for i in range(2)]
            self.backends = [h.backend for h in hosts]
            self._create = [h.create_endpoint for h in hosts]
        self.live = substrate == "live"
        self.net.pair = self

    def endpoint(self, host, rx_buffers=4, **identity):
        return self._create[host](config=CONFIG, rx_buffers=rx_buffers, **identity)

    def send(self, user, channel, payload):
        if self.live:
            user.send(channel, payload)
            self.net.step()
        else:
            self.sim.process(user.send(channel, payload))
            self.sim.run()

    def intercept(self, host, stage):
        """Run ``stage`` on every unit arriving at ``host``, where the
        fault layer interposes: a pipeline on its delivery hook."""
        attach_pipeline(self.backends[host], [stage])


@pytest.fixture(params=SUBSTRATES)
def pair(request):
    with _Pair(request.param).net as net:  # closed (again, for some tests) on the way out
        yield net.pair


def test_create_connect_close(pair):
    a, b = pair.endpoint(0), pair.endpoint(1)
    assert (a.backend, b.backend) == tuple(pair.backends)
    assert (a.name, b.name) == ("h0", "h1")
    assert pair.backends[0].endpoints == [a.endpoint]
    ch_a, ch_b = pair.net.connect(a, b)
    assert (ch_a, ch_b) == (0, 0)
    assert pair.net.connect(a, pair.endpoint(1)) == (1, 0)  # ids are per endpoint
    assert a.endpoint.channels[ch_a].peer == "h1"
    assert b.endpoint.channels[ch_b].peer == "h0"
    assert len(pair.backends[0].demux) == 2

    pair.send(a, ch_a, b"over the wire")
    assert b.poll().data == b"over the wire"

    a.close()
    a.close()  # idempotent
    assert a.closed and pair.backends[0].endpoints == []
    assert len(pair.backends[0].demux) == 0  # its rows went with it
    with pytest.raises(EndpointError):
        pair.send(a, ch_a, b"zombie")


def test_admission_refusal_is_typed_and_counted_once(pair):
    backend = pair.backends[0]
    backend.admission = AdmissionController(AdmissionConfig(max_endpoints=1))
    first = pair.endpoint(0, tenant="t0")
    with pytest.raises(AdmissionRejected):
        pair.endpoint(0, tenant="t1")
    assert backend.admission_rejected_drops == 1
    assert backend.drop_stats()["admission_rejected_drops"] == 1
    assert backend.endpoints == [first.endpoint]
    first.close()  # releases the slot
    pair.endpoint(0, tenant="t1")
    assert backend.admission_rejected_drops == 1


def test_destroying_a_foreign_endpoint_is_a_typed_error(pair):
    a, b = pair.endpoint(0), pair.endpoint(1)
    with pytest.raises(EndpointError, match="does not belong"):
        pair.backends[0].destroy_endpoint(b.endpoint)
    assert pair.backends[1].endpoints == [b.endpoint]


def test_drop_vocabulary_and_one_drop_counted_once(pair):
    """A drop the protocol above books on an endpoint is the endpoint's:
    merged with its backend's counters, the way every soak report merges
    them, it reads 1 — on live as on the simulated substrates."""
    a = pair.endpoint(0)
    backend = pair.backends[0]
    assert tuple(backend.drop_stats()) == DROP_COUNTERS
    assert tuple(a.endpoint.drop_stats()) == DROP_COUNTERS
    a.endpoint.note_drop("stale_epoch_drops")
    a.endpoint.note_drop("peer_dead_drops")
    merged = {key: backend.drop_stats()[key] + a.endpoint.drop_stats()[key]
              for key in DROP_COUNTERS}
    assert merged["stale_epoch_drops"] == 1
    assert merged["peer_dead_drops"] == 1
    assert sum(merged.values()) == 2


def test_the_registry_reads_one_drop_vocabulary_on_every_substrate(pair):
    """After one exchange the registry finds every backend and endpoint
    under the same drop-vocabulary keys on every substrate, and a walk
    of the whole network reaches each of them once: its drop counters
    add up to what ``drop_stats()`` reports."""
    a, b = pair.endpoint(0), pair.endpoint(1)
    ch_a, _ch_b = pair.net.connect(a, b)
    pair.send(a, ch_a, b"counted")
    b.endpoint.note_drop("peer_dead_drops")

    def drops(counters):
        return {key: value for key, value in counters.items()
                if key.rpartition("/")[2] in DROP_COUNTERS}

    assert set(drops(collect(pair.backends))) == {
        f"{host}/{layer}{name}" for host in (0, 1)
        for layer in ("", "endpoints/0/") for name in DROP_COUNTERS}
    reported = sum(sum(layer.drop_stats().values())
                   for backend in pair.backends for layer in (backend, *backend.endpoints))
    assert sum(drops(collect(pair.net)).values()) == reported == 1


class _MarkEachPdu(LinkPerturbation):
    """Keep each arriving PDU's units, and pass it on CE-marked through
    the backend's wire, as a congested switch would."""

    stream_name = None

    def __init__(self, wire):
        super().__init__()
        self.wire = wire
        self.units, self.marked = [], []

    def process(self, unit, now, emit):
        self.units.append(unit)
        if self.wire.pdu(unit)[1]:
            self.marked = self.wire.rewrite(self.units, mark_ce)
            for out in self.marked:
                emit(out, 0.0)


def test_the_wire_reads_and_rewrites_one_am_packet(pair):
    """``backend.wire`` is all the fault layer knows of a format: the
    head of a PDU's first unit peeks the AM packet's (type, seq), and a
    CE-marked rewrite keeps them, sets CE, and is accepted by the
    receive path — on cells, AAL5 reassembles it with a valid CRC."""
    a, b = pair.endpoint(0), pair.endpoint(1)
    ch_a, _ch_b = pair.net.connect(a, b)
    wire = pair.backends[1].wire
    stage = _MarkEachPdu(wire)
    pair.intercept(1, stage)
    packet = encode(Packet(type=TYPE_REQUEST, handler=1, seq=41, data=bytes(100)))
    pair.send(a, ch_a, packet)

    assert peek_type_seq(wire.head(stage.units[0])) == (TYPE_REQUEST, 41)
    marked_head = wire.head(stage.marked[0])
    assert peek_type_seq(marked_head) == (TYPE_REQUEST, 41)
    assert marked_head[0] & ECN_CE_FLAG
    message = b.poll()
    assert message is not None, "the receive path refused the rewritten PDU"
    received = decode(message.data)
    assert (received.type, received.seq, received.ce) == (TYPE_REQUEST, 41, True)
    assert received.data == bytes(100)
    assert not any(pair.backends[1].drop_stats().values())


def test_the_clock_free_half_behaves_the_same(pair):
    a, b = pair.endpoint(0, rx_buffers=0), pair.endpoint(1, rx_buffers=0)
    ch_a, ch_b = pair.net.connect(a, b)
    buffers = b.endpoint.buffers
    assert b.poll() is None

    # donate_rx_buffers: out of the buffer area, onto the free queue
    b.donate_rx_buffers(3)
    assert (buffers.free_count, len(b.endpoint.free_queue)) == (13, 3)

    # poll/_consume: data out, the buffer back on the free queue, the
    # channel's receive counter bumped
    payload = bytes(range(200))  # too big to ride in the descriptor
    pair.send(a, ch_a, payload)
    assert len(b.endpoint.free_queue) == 2
    message = b.poll()
    assert (message.channel_id, message.data) == (ch_b, payload)
    assert len(b.endpoint.free_queue) == 3
    assert b.endpoint.channels[ch_b].messages_received == 1
    assert b.poll() is None

    # _reclaim_completed: a completed send's buffers return to the area
    assert a.endpoint.buffers.free_count == 15
    assert [d.completed for d, _indices in a._tx_inflight] == [True]
    a._reclaim_completed()
    assert not a._tx_inflight and a.endpoint.buffers.free_count == 16

    with pytest.raises(EndpointError, match="exhausted"):
        b.donate_rx_buffers(14)  # 13 left in the area


def _holds_nothing(endpoint):
    return (endpoint.closed and endpoint.buffers.closed
            and endpoint.buffers.num_buffers == 0 and endpoint.buffers.total_bytes == 0
            and not endpoint.send_queue and not endpoint.recv_queue and not endpoint.free_queue
            and not endpoint.channels)


def test_a_destroyed_endpoint_returns_what_it_held_and_keeps_its_counters(pair):
    """Section 3: destroying an endpoint frees its buffer area, queues
    and channels.  The counters a report reads are not resources."""
    a, b = pair.endpoint(0), pair.endpoint(1)
    ch_a, ch_b = pair.net.connect(a, b)
    pair.send(a, ch_a, bytes(200))
    b.endpoint.note_drop("peer_dead_drops")
    assert len(b.endpoint.recv_queue) == 1 and len(b.endpoint.free_queue) == 3
    assert not _holds_nothing(b.endpoint)

    b.close()
    assert _holds_nothing(b.endpoint)
    assert len(pair.backends[1].demux) == 0
    assert b.endpoint.messages_received == 1 and b.endpoint.bytes_received == 200
    assert b.endpoint.drop_stats()["peer_dead_drops"] == 1
    assert b.poll() is None
    with pytest.raises(EndpointError):
        pair.send(b, ch_b, b"zombie")
    # the survivor is untouched, and traffic to the dead is the demux's drop
    assert not a.endpoint.closed and a.endpoint.channels
    pair.send(a, ch_a, b"to the dead")
    assert pair.backends[1].drop_stats()["unknown_tag_drops"] == 1


def test_a_message_past_the_demux_when_its_endpoint_dies_is_a_counted_drop(pair):
    """The NI may hold an endpoint across a wait (a DMA, a copy); what it
    then delivers to a destroyed endpoint is dropped and counted, never
    queued on a ring nobody owns."""
    from repro.core import RecvDescriptor

    b = pair.endpoint(1)
    b.close()
    assert not b.endpoint.deliver(RecvDescriptor(channel_id=0, length=4, inline=b"late"))
    assert not b.endpoint.recv_queue
    assert b.endpoint.drop_stats()["recv_queue_drops"] == 1


def test_closing_the_network_closes_the_whole_machine(pair):
    a, b = pair.endpoint(0), pair.endpoint(1)
    ch_a, _ch_b = pair.net.connect(a, b)
    pair.send(a, ch_a, b"counted")
    pair.net.close()
    pair.net.close()  # idempotent
    for backend, user in zip(pair.backends, (a, b)):
        # listed and readable — a closed machine is what a report is read from
        assert backend.endpoints == [user.endpoint]
        assert _holds_nothing(user.endpoint)
        assert len(backend.demux) == 0
        assert tuple(backend.drop_stats()) == DROP_COUNTERS
    assert b.endpoint.messages_received == 1
    if not pair.live:
        assert pair.sim.closed
