"""The SBus-based SBA-200 variant (the paper's Split-C ATM hardware)."""

import pytest

from repro.atm import SBA200_TIMINGS, AtmNetwork
from repro.hw import SBUS, SPARCSTATION_20
from repro.sim import Simulator


@pytest.fixture
def pair(two_hosts):
    def build(**adapter):  # bus=, timings=
        rig = two_hosts(AtmNetwork(Simulator()), SPARCSTATION_20, config=None,
                        rx_buffers=32, **adapter)
        return rig.sim, rig.ep1, rig.ep2, rig.ch1, rig.ch2

    return build


def _rtt(sim, ep1, ep2, ch1, ch2, size):
    def ponger():
        while True:
            msg = yield from ep2.recv()
            yield from ep2.send(ch2, msg.data)

    def pinger():
        last = 0.0
        for _ in range(3):
            t0 = sim.now
            yield from ep1.send(ch1, b"x" * size)
            yield from ep1.recv()
            last = sim.now - t0
        return last

    sim.process(ponger())
    return sim.run_until_complete(sim.process(pinger()))


def test_sba200_delivers_correctly(pair):
    sim, ep1, ep2, ch1, ch2 = pair(bus=SBUS, timings=SBA200_TIMINGS)

    def tx():
        yield from ep1.send(ch1, b"sbus adapter" * 50)

    sim.process(tx())

    def rx():
        return (yield from ep2.recv())

    msg = sim.run_until_complete(sim.process(rx()))
    assert msg.data == b"sbus adapter" * 50


def test_sba200_slower_than_pca200_for_bulk(pair):
    """SBus's 32-byte bursts and lower bandwidth show on large messages."""
    sim, ep1, ep2, ch1, ch2 = pair()  # PCA-200 defaults (PCI)
    pci_rtt = _rtt(sim, ep1, ep2, ch1, ch2, 1400)
    sim, ep1, ep2, ch1, ch2 = pair(bus=SBUS, timings=SBA200_TIMINGS)
    sbus_rtt = _rtt(sim, ep1, ep2, ch1, ch2, 1400)
    assert sbus_rtt > pci_rtt + 20.0


def test_sba200_small_message_gap_is_modest(pair):
    """'largely identical' (Section 5): the single-cell path differs
    little between the adapters."""
    sim, ep1, ep2, ch1, ch2 = pair()
    pci_rtt = _rtt(sim, ep1, ep2, ch1, ch2, 40)
    sim, ep1, ep2, ch1, ch2 = pair(bus=SBUS, timings=SBA200_TIMINGS)
    sbus_rtt = _rtt(sim, ep1, ep2, ch1, ch2, 40)
    assert sbus_rtt == pytest.approx(pci_rtt, rel=0.10)
