"""Tests for the shared CSMA/CD medium and full-duplex links."""

import pytest

from repro.ethernet import DuplexLink, EthernetFrame, SharedMedium, SimplexChannel, wire_time_us
from repro.sim import RngRegistry, Simulator


def _frame(payload=b"x" * 40, dst=2, src=1):
    return EthernetFrame(dst_mac=dst, src_mac=src, dst_port=1, src_port=1, payload=payload)


def test_single_sender_delivers_to_all_other_stations():
    sim = Simulator()
    medium = SharedMedium(sim)
    a, b, c = medium.attach(), medium.attach(), medium.attach()
    got_b, got_c = [], []
    b.set_receiver(lambda f: got_b.append(sim.now))
    c.set_receiver(lambda f: got_c.append(sim.now))
    a.set_receiver(lambda f: pytest.fail("sender must not hear its own frame"))

    def tx():
        yield from a.transmit(_frame())

    sim.process(tx())
    sim.run()
    # IFG then full serialization
    expect = 0.96 + wire_time_us(_frame())
    assert got_b == [pytest.approx(expect)]
    assert got_c == [pytest.approx(expect)]
    assert medium.frames_carried == 1
    assert medium.collisions == 0


def test_carrier_sense_defers_second_sender():
    sim = Simulator()
    medium = SharedMedium(sim)
    a, b = medium.attach(), medium.attach()
    b.set_receiver(lambda f: None)
    a.set_receiver(lambda f: None)
    done = []

    def tx(station, delay, tag):
        yield sim.timeout(delay)
        yield from station.transmit(_frame())
        done.append((tag, sim.now))

    sim.process(tx(a, 0.0, "a"))
    sim.process(tx(b, 2.0, "b"))  # starts while a is transmitting
    sim.run()
    assert medium.collisions == 0
    t_a = dict(done)["a"]
    t_b = dict(done)["b"]
    # b's frame serialized after a's finished, plus an IFG
    assert t_b >= t_a + wire_time_us(_frame())


def test_simultaneous_starts_collide_and_backoff_resolves():
    sim = Simulator()
    medium = SharedMedium(sim, rng=RngRegistry(7))
    a, b = medium.attach(), medium.attach()
    a.set_receiver(lambda f: None)
    b.set_receiver(lambda f: None)
    finished = []

    def tx(station, tag):
        yield from station.transmit(_frame())
        finished.append(tag)

    sim.process(tx(a, "a"))
    sim.process(tx(b, "b"))
    sim.run()
    assert medium.collisions >= 1
    assert sorted(finished) == ["a", "b"]  # both eventually delivered
    assert medium.frames_carried == 2


def test_contention_degrades_aggregate_efficiency():
    """Section 4: 'contention for the shared medium might degrade
    performance as more hosts are added'."""

    def total_time(n_stations, frames_each=5):
        sim = Simulator()
        medium = SharedMedium(sim, rng=RngRegistry(11))
        stations = [medium.attach() for _ in range(n_stations)]
        for s in stations:
            s.set_receiver(lambda f: None)

        def tx(station):
            for _ in range(frames_each):
                yield from station.transmit(_frame(b"p" * 500))

        for s in stations:
            sim.process(tx(s))
        sim.run()
        return sim.now, medium.collisions

    t2, c2 = total_time(2)
    t8, c8 = total_time(8)
    # 4x the frames take more than 4x the time once collisions kick in
    assert c8 > c2
    assert t8 > 4 * t2 * 0.9


def test_simplex_channel_orders_and_delays():
    sim = Simulator()
    chan = SimplexChannel(sim, propagation_us=1.0)
    seen = []
    chan.deliver = lambda f: seen.append((f.payload, sim.now))
    f1, f2 = _frame(b"a" * 100), _frame(b"b" * 100)
    chan.submit(f1)
    chan.submit(f2)
    sim.run()
    assert [p for p, _t in seen] == [b"a" * 100, b"b" * 100]
    assert seen[0][1] == pytest.approx(wire_time_us(f1) + 1.0)
    assert seen[1][1] == pytest.approx(2 * wire_time_us(f1) + 1.0)


def test_simplex_submit_returns_end_of_wire_and_schedules_no_wait():
    """``submit`` hands back the end-of-wire instant instead of building
    a Timeout nobody but a sending NIC wants: one heap entry per frame."""
    sim = Simulator()
    chan = SimplexChannel(sim)
    chan.deliver = lambda f: None
    sim.run(until=5.0)
    first = chan.submit(_frame())
    assert first == pytest.approx(5.0 + wire_time_us(_frame()))
    assert chan.submit(_frame()) == pytest.approx(first + wire_time_us(_frame()))
    sim.run()
    assert sim.events_processed == 2  # the two deliveries, nothing else


def test_duplex_transmit_sleeps_until_end_of_wire():
    sim = Simulator()
    link = DuplexLink(sim)
    link.uplink.deliver = lambda f: None
    times = []

    def tx():
        yield 3.0
        for _ in range(2):
            yield from link.transmit(_frame())
            times.append(sim.now)

    sim.process(tx())
    sim.run()
    wire = wire_time_us(_frame())
    assert times == [pytest.approx(3.0 + wire), pytest.approx(3.0 + 2 * wire)]


def test_dropped_frame_costs_the_sender_no_wire_time():
    sim = Simulator()
    link = DuplexLink(sim)
    link.uplink.buffer_frames = 0
    link.uplink.deliver = lambda f: None
    link.uplink.submit(_frame(b"x" * 1400))   # on the wire; no slot behind it
    done = []

    def tx():
        yield from link.transmit(_frame())
        done.append(sim.now)

    sim.process(tx())
    sim.run()
    assert link.uplink.frames_dropped == 1 and done == [0.0]


def test_deliver_at_header_mode():
    sim = Simulator()
    chan = SimplexChannel(sim, propagation_us=0.0, deliver_at_header=True)
    arrivals = []
    chan.deliver = lambda f: arrivals.append(sim.now)
    big = _frame(b"x" * 1400)
    end_of_wire = chan.submit(big)
    sim.run()
    header_time = (8 + 14) * 8 / 100.0
    assert arrivals == [pytest.approx(header_time)]
    # the channel itself stayed busy for the full frame
    assert end_of_wire == pytest.approx(wire_time_us(big))
    assert chan.submit(big) == pytest.approx(2 * wire_time_us(big))


# ------------------------------------------------- the fused switch hop
# Same contract as the ATM one (tests/atm/test_phy_switch.py): a frame
# submitted *as of* now + latency is delivered at the very float the
# unfused hop — a callback at that instant which then submits — reached.

def _egress_instants(arrivals, fused, latency_us=4.0, **channel):
    sim = Simulator()
    chan = SimplexChannel(sim, propagation_us=0.5, **channel)
    delivered = []
    chan.deliver = lambda frame: delivered.append((len(frame.payload), sim.now))

    def arrive(size):
        frame = _frame(b"x" * size)
        if fused:
            chan.submit(frame, sim.now + latency_us)
        else:
            sim.call_in(latency_us, chan.submit, frame)

    for at, size in arrivals:
        sim.call_at(at, arrive, size)
    sim.run()
    return delivered, chan.frames_dropped, chan.frames_carried, sim.events_processed


@pytest.mark.parametrize("channel", [
    {}, {"deliver_at_header": True}, {"buffer_frames": 1},
], ids=["store-and-forward", "cut-through", "finite"])
def test_fused_hop_delivers_at_the_instants_of_the_unfused_hop(channel):
    wire = wire_time_us(_frame(b"x" * 40))
    arrivals = ([(0.3 + i * wire, 40) for i in range(12)]          # back to back
                + [(400.0, 1400)] * 4                              # a same-instant burst
                + [(900.0 + i * 7.3, 40 + 90 * (i % 4)) for i in range(12)])  # gaps, mixed sizes
    fused = _egress_instants(arrivals, True, **channel)
    unfused = _egress_instants(arrivals, False, **channel)
    assert fused[:3] == unfused[:3]
    if "buffer_frames" in channel:
        assert fused[1] >= 2  # the burst of four overflows one on the wire plus one queued
    else:
        assert fused[3] == unfused[3] - len(arrivals)  # a heap entry less per frame


def test_channel_deliver_swapped_mid_flight_is_honoured_at_fire_time():
    sim = Simulator()
    chan = SimplexChannel(sim)
    chan.deliver = lambda frame: pytest.fail("the trunk went down before delivery")
    chan.submit(_frame(), sim.now + 4.0)
    blackholed = []
    sim.call_in(2.0, setattr, chan, "deliver", blackholed.append)
    sim.run()
    assert len(blackholed) == 1 and chan.frames_carried == 1
