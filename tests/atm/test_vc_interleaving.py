"""Cell-level multiplexing: "ATM allows data to be multiplexed on a link
at the relatively fine granularity of cells" (Section 4).

Multiple PDUs from different virtual circuits interleave cell-by-cell on
one fiber; per-VCI reassembly state in the firmware must keep them
apart.
"""

import numpy as np
import pytest

from repro.atm import AtmNetwork
from repro.core import EndpointConfig
from repro.hw import PENTIUM_120
from repro.sim import Simulator

CONFIG = EndpointConfig(num_buffers=128, buffer_size=2048, recv_queue_depth=64)


def _fan_in(n_senders):
    sim = Simulator()
    net = AtmNetwork(sim)
    receiver = net.add_host("rx", PENTIUM_120)
    rx_ep = receiver.create_endpoint(config=CONFIG, rx_buffers=64)
    senders = []
    for i in range(n_senders):
        host = net.add_host(f"tx{i}", PENTIUM_120)
        ep = host.create_endpoint(config=CONFIG, rx_buffers=8)
        ch_rx, ch_tx = net.connect(rx_ep, ep)
        senders.append((ep, ch_tx))
    return sim, net, rx_ep, senders


def test_concurrent_pdus_from_three_vcs_reassemble_intact():
    sim, net, rx_ep, senders = _fan_in(3)
    payloads = [bytes([64 + i]) * (900 + 100 * i) for i in range(3)]

    for (ep, ch), payload in zip(senders, payloads):
        def tx(ep=ep, ch=ch, payload=payload):
            yield from ep.send(ch, payload)

        sim.process(tx())

    received = []

    def rx():
        while len(received) < 3:
            msg = yield from rx_ep.recv()
            received.append(msg.data)

    sim.run_until_complete(sim.process(rx()))
    # every PDU arrived exactly as sent, whatever the cell interleaving
    assert sorted(received) == sorted(payloads)
    assert all(len(set(p)) == 1 for p in received)  # no cross-VC bleed
    backend = rx_ep.host.backend
    assert backend.crc_errors == 0
    assert backend.pdus_received == 3


def test_cells_really_interleaved_on_the_shared_path():
    """The egress link toward the receiver carries the three PDUs'
    cells interleaved, not one PDU at a time."""
    sim, net, rx_ep, senders = _fan_in(3)
    egress = net.switch.ports[0]  # link toward the receiver
    sequence = []
    original = egress.deliver

    def spy(cell):
        sequence.append(cell.vci)
        original(cell)

    egress.deliver = spy
    for i, (ep, ch) in enumerate(senders):
        def tx(ep=ep, ch=ch, i=i):
            yield from ep.send(ch, bytes([i]) * 1200)

        sim.process(tx())
    received = []

    def rx():
        while len(received) < 3:
            msg = yield from rx_ep.recv()
            received.append(msg.data)

    sim.run_until_complete(sim.process(rx()))
    # at least one VCI switch happens mid-stream (fine-grained mux)
    switches = sum(1 for a, b in zip(sequence, sequence[1:]) if a != b)
    assert switches >= 3
    assert len(set(sequence)) == 3


def test_interleaving_under_load_with_verification():
    sim, net, rx_ep, senders = _fan_in(3)
    rng = np.random.RandomState(5)
    expected = {}
    for i, (ep, ch) in enumerate(senders):
        blobs = [rng.bytes(300 + 97 * j) for j in range(4)]
        expected[i] = blobs

        def tx(ep=ep, ch=ch, blobs=blobs):
            for blob in blobs:
                yield from ep.send(ch, blob)

        sim.process(tx())
    # rx_ep's channels were created in sender order: channel i <-> sender i
    received = {i: [] for i in range(3)}

    def rx():
        count = 0
        while count < 12:
            msg = yield from rx_ep.recv()
            received[msg.channel_id].append(msg.data)
            count += 1

    sim.run_until_complete(sim.process(rx()))
    # per-channel FIFO with intact contents
    for channel_id, blobs in received.items():
        assert blobs == expected[channel_id]
