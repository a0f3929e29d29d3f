"""The kernel's deferred send-queue service when the device ring fills."""

from repro.core import EndpointConfig
from repro.ethernet import HubNetwork
from repro.hw import PENTIUM_120
from repro.sim import Simulator


def _pair_with_tiny_tx_ring(closing, ring_size):
    """Hosts whose NIC TX ring holds only a few frames, on a hub closed
    when the test ends."""
    sim = Simulator()
    net = closing(HubNetwork(sim))
    h1 = net.add_host("h1", PENTIUM_120)
    h2 = net.add_host("h2", PENTIUM_120)
    # shrink h1's device ring after construction
    nic = h1.backend.nic
    nic.tx_ring.capacity = ring_size
    config = EndpointConfig(num_buffers=128, buffer_size=2048, send_queue_depth=64)
    ep1 = h1.create_endpoint(config=config, rx_buffers=16)
    ep2 = h2.create_endpoint(config=config, rx_buffers=48)
    ch1, ch2 = net.connect(ep1, ep2)
    return sim, ep1, ep2, ch1, ch2


def test_burst_larger_than_tx_ring_all_delivered(closing):
    sim, ep1, ep2, ch1, ch2 = _pair_with_tiny_tx_ring(closing, ring_size=4)
    n = 20
    received = []

    def tx():
        # queue everything without kicking, then one trap services what
        # fits and defers the rest to the TX-done path
        for i in range(n):
            yield from ep1.send(ch1, bytes([i]) * 100, kick=False)
        yield from ep1.kick()

    def rx():
        while len(received) < n:
            msg = yield from ep2.recv()
            received.append(msg.data[0])

    sim.process(tx())
    sim.run_until_complete(sim.process(rx()))
    assert received == list(range(n))


def test_deferred_service_marks_and_clears(closing):
    sim, ep1, ep2, ch1, ch2 = _pair_with_tiny_tx_ring(closing, ring_size=2)
    backend1 = ep1.host.backend
    n = 10
    received = []

    def tx():
        for i in range(n):
            yield from ep1.send(ch1, bytes([i + 50]) * 40, kick=False)
        yield from ep1.kick()

    def rx():
        while len(received) < n:
            msg = yield from ep2.recv()
            received.append(msg.data[0])

    sim.process(tx())
    sim.run_until_complete(sim.process(rx()))
    sim.run()
    # everything drained: no endpoint left waiting for service
    assert not backend1._deferred_service
    assert ep1.endpoint.send_queue.is_empty
    assert backend1.nic.tx_ring.is_empty


def test_send_queue_backpressure_blocks_application(closing):
    """With both the device ring and U-Net send queue tiny, the
    application-visible send() must block, not crash."""
    sim = Simulator()
    net = closing(HubNetwork(sim))
    h1 = net.add_host("h1", PENTIUM_120)
    h2 = net.add_host("h2", PENTIUM_120)
    h1.backend.nic.tx_ring.capacity = 2
    config = EndpointConfig(num_buffers=128, buffer_size=2048, send_queue_depth=4)
    ep1 = h1.create_endpoint(config=config, rx_buffers=8)
    ep2 = h2.create_endpoint(rx_buffers=48)
    ch1, ch2 = net.connect(ep1, ep2)
    n = 16
    received = []

    def tx():
        for i in range(n):
            yield from ep1.send(ch1, bytes([i]) * 200, kick=(i % 3 == 0))
        yield from ep1.kick()

    def rx():
        while len(received) < n:
            msg = yield from ep2.recv()
            received.append(msg.data[0])

    sim.process(tx())
    sim.run_until_complete(sim.process(rx()))
    assert received == list(range(n))
