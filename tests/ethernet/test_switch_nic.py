"""Tests for the Ethernet switch models and the DC21140."""

import pytest

from repro.ethernet import (
    BAY_28115,
    FN100,
    Dc21140,
    EthernetFrame,
    EthernetSwitch,
    SharedMedium,
    TxRingDescriptor,
    wire_time_us,
)
from repro.ethernet.frames import COLLECTIVE_PORT
from repro.sim import Simulator
from tests.heap_census import heap_census


def _frame(dst, src, payload=b"x" * 40):
    return EthernetFrame(dst_mac=dst, src_mac=src, dst_port=1, src_port=1, payload=payload)


# ---------------------------------------------------------------- switch


def _two_station_switch(sim, model):
    switch = EthernetSwitch(sim, model)
    link1 = switch.attach(mac=1)
    link2 = switch.attach(mac=2)
    return switch, link1, link2


def test_switch_forwards_to_destination_only():
    sim = Simulator()
    switch, link1, link2 = _two_station_switch(sim, FN100)
    got1, got2 = [], []
    link1.set_receiver(lambda f: got1.append(f))
    link2.set_receiver(lambda f: got2.append(f))

    def tx():
        yield from link1.transmit(_frame(dst=2, src=1))

    sim.process(tx())
    sim.run()
    assert len(got2) == 1 and not got1
    assert switch.frames_forwarded == 1


def test_store_and_forward_adds_full_serialization():
    def latency(model):
        sim = Simulator()
        switch, link1, link2 = _two_station_switch(sim, model)
        arrival = []
        link2.set_receiver(lambda f: arrival.append(sim.now))

        def tx():
            yield from link1.transmit(_frame(dst=2, src=1, payload=b"q" * 1400))

        sim.process(tx())
        sim.run()
        return arrival[0]

    # FN100 receives the whole frame before forwarding; Bay 28115 cuts
    # through after the header, so large frames arrive much earlier.
    assert latency(FN100) - latency(BAY_28115) > 0.8 * wire_time_us(_frame(2, 1, b"q" * 1400))


def test_switch_drops_unknown_destination():
    sim = Simulator()
    switch, link1, _link2 = _two_station_switch(sim, BAY_28115)

    def tx():
        yield from link1.transmit(_frame(dst=99, src=1))

    sim.process(tx())
    sim.run()
    assert switch.unknown_mac_drops == 1


def test_switch_port_limit():
    sim = Simulator()
    switch = EthernetSwitch(sim, FN100)  # 8 ports
    for mac in range(8):
        switch.attach(mac=mac + 10)
    with pytest.raises(ValueError):
        switch.attach(mac=99)


def test_full_duplex_simultaneous_exchange():
    sim = Simulator()
    switch, link1, link2 = _two_station_switch(sim, BAY_28115)
    arrivals = {}
    link1.set_receiver(lambda f: arrivals.setdefault(1, sim.now))
    link2.set_receiver(lambda f: arrivals.setdefault(2, sim.now))

    def tx(link, dst, src):
        yield from link.transmit(_frame(dst=dst, src=src))

    sim.process(tx(link1, 2, 1))
    sim.process(tx(link2, 1, 2))
    sim.run()
    # both directions complete concurrently — within one serialization
    # of each other (no shared-medium deferral)
    assert abs(arrivals[1] - arrivals[2]) < 1e-6


# ---------------------------------------------------------------- DC21140


def _nic_pair_on_hub(sim):
    medium = SharedMedium(sim)
    nic1 = Dc21140(sim, mac=1, name="nic1")
    nic2 = Dc21140(sim, mac=2, name="nic2")
    nic1.attach(medium.attach())
    nic2.attach(medium.attach())
    return nic1, nic2


def test_nic_transmits_on_poll_demand_only():
    sim = Simulator()
    nic1, nic2 = _nic_pair_on_hub(sim)
    nic1.tx_ring.push(TxRingDescriptor(frame=_frame(dst=2, src=1)))
    sim.run()
    assert nic1.frames_sent == 0  # no poll demand yet
    nic1.poll_demand()
    sim.run()
    assert nic1.frames_sent == 1
    assert nic2.frames_received == 1


def test_nic_completion_callback_fires_after_dma():
    sim = Simulator()
    nic1, _nic2 = _nic_pair_on_hub(sim)
    completed = []
    nic1.tx_ring.push(
        TxRingDescriptor(frame=_frame(dst=2, src=1), on_complete=lambda: completed.append(sim.now))
    )
    nic1.poll_demand()
    sim.run()
    assert len(completed) == 1
    assert completed[0] > 0


def test_nic_filters_frames_for_other_macs():
    sim = Simulator()
    medium = SharedMedium(sim)
    nic1 = Dc21140(sim, mac=1)
    nic2 = Dc21140(sim, mac=2)
    nic3 = Dc21140(sim, mac=3)
    for nic in (nic1, nic2, nic3):
        nic.attach(medium.attach())
    nic1.tx_ring.push(TxRingDescriptor(frame=_frame(dst=2, src=1)))
    nic1.poll_demand()
    sim.run()
    assert nic2.frames_received == 1
    assert nic3.frames_received == 0


def test_nic_rx_ring_overflow_drops():
    sim = Simulator()
    nic1, nic2 = _nic_pair_on_hub(sim)
    nic2.rx_ring.capacity = 2  # shrink the ring
    for _ in range(4):
        nic1.tx_ring.push(TxRingDescriptor(frame=_frame(dst=2, src=1)))
    nic1.poll_demand()
    sim.run()
    assert nic2.frames_received == 2
    assert nic2.rx_overflow_drops == 2


def test_nic_interrupt_raised_per_frame():
    sim = Simulator()
    nic1, nic2 = _nic_pair_on_hub(sim)
    interrupts = []
    nic2.interrupt = lambda: interrupts.append(sim.now)
    for _ in range(3):
        nic1.tx_ring.push(TxRingDescriptor(frame=_frame(dst=2, src=1)))
    nic1.poll_demand()
    sim.run()
    assert len(interrupts) == 3


def test_nic_pipelines_dma_with_wire():
    """Back-to-back large frames go out at wire rate, not DMA+wire rate."""
    sim = Simulator()
    nic1, nic2 = _nic_pair_on_hub(sim)
    big = b"z" * 1498
    n = 10
    arrivals = []
    original = nic2.interrupt
    nic2.interrupt = lambda: arrivals.append(sim.now)
    for _ in range(n):
        nic1.tx_ring.push(TxRingDescriptor(frame=_frame(dst=2, src=1, payload=big)))
    nic1.poll_demand()
    sim.run()
    assert len(arrivals) == n
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    wire = wire_time_us(_frame(2, 1, big)) + 0.96  # + IFG wait
    # steady-state inter-frame gap stays within 15% of pure wire time
    assert sum(gaps[2:]) / len(gaps[2:]) < wire * 1.15


# ------------------------------------------------ DC21140 collective engine


def _collective_frame(dst, src, payload=b"c" * 16):
    return EthernetFrame(dst_mac=dst, src_mac=src, dst_port=COLLECTIVE_PORT,
                         src_port=COLLECTIVE_PORT, payload=payload)


def test_collective_frame_costs_one_heap_entry_per_modelled_delay():
    """Send side: the engine's op, then the wire (the FIFO wake-up of
    ``_tx_wire`` is the one survivor that models no delay).  Receive
    side: the switch's delivery and the engine's op.  No process is
    born or completed per frame."""
    sim = Simulator()
    switch = EthernetSwitch(sim, BAY_28115)
    nic1, nic2 = Dc21140(sim, mac=1, name="nic1"), Dc21140(sim, mac=2, name="nic2")
    nic1.attach(switch.attach(mac=1))
    nic2.attach(switch.attach(mac=2))
    got = []
    nic2.collective_rx = got.append
    sim.run()  # the TX engines park on their stores
    with heap_census(sim) as census:
        nic1.send_collective(_collective_frame(dst=2, src=1))
        sim.run()
    assert got == [b"c" * 16]
    assert not [kind for kind in census.entries if kind.startswith(("start:", "done:"))]
    assert census.entries["call:Dc21140._collective_stage"] == 1
    assert census.entries["call:Dc21140._collective_deliver"] == 1
    assert dict(census.zero_delay) == {"event:txfifo.get": 1}


def test_full_tx_fifo_still_back_pressures_collective_sends():
    """Five frames at once into a two-deep FIFO: the third onward wait
    in the store's putter queue, and every frame still leaves in order,
    one wire time apart."""
    sim = Simulator()
    nic1, nic2 = _nic_pair_on_hub(sim)
    arrivals = []
    nic2.collective_rx = lambda payload: arrivals.append((sim.now, payload))
    for i in range(5):
        nic1.send_collective(_collective_frame(dst=2, src=1, payload=bytes([i]) * 16))
    sim.run(until=nic1.timings.collective_op_us)
    # one on the wire, two staged, two held back by the full FIFO
    assert len(nic1._tx_fifo) == 2 and nic1._tx_fifo.is_full
    assert len(nic1._tx_fifo._putters) == 2
    sim.run()
    assert [payload[0] for _when, payload in arrivals] == [0, 1, 2, 3, 4]
    gaps = [b - a for (a, _), (b, _) in zip(arrivals, arrivals[1:])]
    assert min(gaps) >= wire_time_us(_collective_frame(2, 1))
    assert nic1.frames_sent == 5 and nic2.collective_frames_received == 5
    assert nic2.frames_received == 0  # consumed on the controller, never the host ring


def test_collective_handler_is_read_when_the_engine_fires():
    """A handler swapped during the ``collective_op_us`` delay gets the
    frame; one cleared during it gets nothing, and nothing raises."""
    sim = Simulator()
    nic1, nic2 = _nic_pair_on_hub(sim)
    first, second = [], []
    nic2.collective_rx = first.append
    nic2._on_frame(_collective_frame(dst=2, src=1, payload=b"swap"))
    nic2.collective_rx = second.append
    sim.run()
    assert (first, second) == ([], [b"swap"])
    nic2._on_frame(_collective_frame(dst=2, src=1, payload=b"gone"))
    nic2.collective_rx = None
    sim.run()
    assert (first, second) == ([], [b"swap"])
    assert nic2.collective_frames_received == 2
