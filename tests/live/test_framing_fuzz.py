"""Byte-fuzz of the live ``!HHH`` framing on the batched doorbell.

Arbitrary datagrams arrive at a batched node — 0 to 8 bytes of anything,
frames under the channel's tag and under random ones, and datagrams
larger than an RX pool slot sitting inside a ``recvmmsg`` window — and
are drained through :meth:`LiveBackend.service` and
:meth:`LiveBackend.service_fast`.  Every datagram has exactly one fate:
delivered, counted (``unknown_tag_drops``, ``rx_truncated``) or dropped
as shorter than a frame header.  Nothing raises but an upcall's own
exception, and the RX pool is full again after every pass.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EndpointConfig
from repro.live import LiveCluster, WallClock, make_transport, mmsg_available
from repro.live.backend import FRAME_HEADER_SIZE, _FRAME_STRUCT

from .conftest import require

pytestmark = require("unix")

MAX_PDU = 64
#: an RX pool slot holds a header and a max-size PDU; one byte more truncates
SLOT = FRAME_HEADER_SIZE + MAX_PDU
#: stays under AF_UNIX's unconnected ``max_dgram_qlen`` (10 on stock kernels)
PER_PASS = 8
_CONFIG = EndpointConfig(num_buffers=32, buffer_size=64,
                         send_queue_depth=16, recv_queue_depth=32)


class UpcallFailed(Exception):
    pass


def _datagram(tag):
    header = st.one_of(st.just(tag), st.tuples(*[st.integers(0, 0xFFFF)] * 3))
    framed = st.builds(lambda h, body: _FRAME_STRUCT.pack(*h) + body,
                       header, st.binary(max_size=MAX_PDU))
    oversize = st.binary(min_size=SLOT + 1, max_size=3 * SLOT)
    return st.one_of(st.binary(max_size=8), framed, oversize)


def _rig(use_mmsg):
    cluster = LiveCluster(lambda name: make_transport("unix", name, use_mmsg=use_mmsg),
                          WallClock(), max_pdu=MAX_PDU, doorbell_mode="batched")
    n0, n1 = cluster.add_node(), cluster.add_node()
    ep0 = n0.create_user_endpoint(config=_CONFIG, rx_buffers=8)
    ep1 = n1.create_user_endpoint(config=_CONFIG, rx_buffers=8)
    ch0, _ch1 = cluster.connect(ep0, ep1)
    tag = ep0.endpoint.channels[ch0].tag
    return cluster, n1, ep1, (tag.dst_port, tag.src_node, tag.src_port)


def _fate(raw, tag):
    if len(raw) > SLOT:
        return "truncated"
    if len(raw) < FRAME_HEADER_SIZE:
        return "short"
    return "delivered" if _FRAME_STRUCT.unpack_from(raw) == tag else "unknown"


@pytest.mark.parametrize("use_mmsg", [
    pytest.param(True, id="mmsg", marks=pytest.mark.skipif(
        not mmsg_available(), reason="no sendmmsg/recvmmsg here")),
    pytest.param(False, id="portable")])
@pytest.mark.parametrize("fast", [True, False], ids=["service_fast", "service"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_datagram_is_delivered_counted_or_too_short(use_mmsg, fast, data):
    cluster, node, user, tag = _rig(use_mmsg)
    pool, transport = node._rx_pool, node.transport
    with cluster, make_transport("unix", "fuzz") as wire:
        passes = data.draw(st.lists(st.lists(_datagram(tag), min_size=1, max_size=PER_PASS),
                                    min_size=1, max_size=4))
        raising = data.draw(st.integers(-1, len(passes) - 1))  # the pass whose upcall raises
        for number, datagrams in enumerate(passes):
            for raw in datagrams:
                assert wire.send(transport.address, raw)
            before = (node.demux.unknown_tag_drops, transport.rx_truncated,
                      transport.rx_datagrams)
            got = []

            def on_message(_endpoint, _channel, view):
                if number == raising:
                    raise UpcallFailed
                got.append(bytes(view))

            raised = False
            for _ in range(2 * PER_PASS):  # until the kernel queue is drained
                try:
                    if fast:
                        node.service_fast(on_message)
                    else:
                        node.service()
                except UpcallFailed:
                    raised = True
                assert pool.free_count == pool.slots  # also after a raise
                taken = (transport.rx_datagrams - before[2]
                         + transport.rx_truncated - before[1])
                if taken == len(datagrams):
                    break
            assert taken == len(datagrams)
            if not fast:
                message = user.poll()
                while message is not None:
                    got.append(message.data)
                    message = user.poll()
            fates = [_fate(raw, tag) for raw in datagrams]
            assert transport.rx_truncated - before[1] == fates.count("truncated")
            if raised:
                # the rest of the upcall's burst is taken, and not demuxed
                assert fast and number == raising and "delivered" in fates
                continue
            assert node.demux.unknown_tag_drops - before[0] == fates.count("unknown")
            assert got == [raw[FRAME_HEADER_SIZE:] for raw in datagrams
                           if _fate(raw, tag) == "delivered"]
