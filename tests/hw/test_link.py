"""One link model: the wire contract, on a cell link and a frame link.

Both NICs sit on a point-to-point line with a rate and a propagation
delay, and both are one :class:`~repro.hw.bus.Link`: a
:class:`~repro.atm.phy.CellLink` on OC-3c (53-byte cells plus the SONET
framer latency) and a plain ``Link`` at 100 Mb/s carrying 1 000-byte
Ethernet frames.  Every test here runs on both.  Instants are compared
with ``==`` where the model promises the same float, ``approx`` where it
only promises the arithmetic.
"""

import types
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.atm import ASX200_FORWARD_US, OC3_SONET, Cell, CellLink
from repro.ethernet import EthernetFrame, wire_time_us
from repro.hw.bus import Link
from repro.sim import Simulator, engine


@dataclass(frozen=True)
class Wire:
    """How to build one kind of link and the units it carries."""

    build: Callable  # (sim, propagation_us, buffer) -> Link
    unit: Callable  # index -> a fresh unit
    unit_us: float  # one unit's serialization time
    framer_us: float


WIRES = {
    "atm-oc3": Wire(
        build=lambda sim, propagation_us, buffer: CellLink(
            sim, OC3_SONET, propagation_us=propagation_us, buffer=buffer),
        unit=lambda index: Cell(vci=32 + index, payload=bytes(48), last=True),
        unit_us=OC3_SONET.cell_time_us,
        framer_us=OC3_SONET.framer_latency_us,
    ),
    "fe-100": Wire(
        build=lambda sim, propagation_us, buffer: Link(
            sim, 100.0, propagation_us, "fe", buffer=buffer),
        unit=lambda index: EthernetFrame(dst_mac=2, src_mac=1, dst_port=1,
                                         src_port=index % 256, payload=bytes(1000)),
        unit_us=wire_time_us(EthernetFrame(dst_mac=2, src_mac=1, dst_port=1,
                                           src_port=1, payload=bytes(1000))),
        framer_us=0.0,
    ),
}


@pytest.fixture(params=list(WIRES))
def wire(request):
    return WIRES[request.param]


@pytest.fixture
def sim():
    simulator = Simulator()
    yield simulator
    simulator.close()


def egress_instants(build, arrivals, fused, latency_us=ASX200_FORWARD_US):
    """``arrivals`` (``(instant, unit)`` pairs) through a switch hop of
    ``latency_us`` into the link ``build(sim)`` makes: fused, the hop
    submits *as of* the instant it ends (one heap entry for hop and
    wire); unfused, a callback at that instant submits.  Returns the
    deliveries as ``(arrival index, instant)``, the link's drop and carry
    counts, and the events the run took."""
    sim = Simulator()
    link = build(sim)
    index = {id(unit): i for i, (_at, unit) in enumerate(arrivals)}
    delivered = []
    link.deliver = lambda unit: delivered.append((index[id(unit)], sim.now))

    def arrive(unit):
        if fused:
            link.submit(unit, sim.now + latency_us)
        else:
            sim.call_in(latency_us, link.submit, unit)

    for at, unit in arrivals:
        sim.call_at(at, arrive, unit)
    sim.run()
    sim.close()
    return delivered, link.dropped, link.carried, sim.events_processed


def test_back_to_back_units_arrive_in_order_and_are_counted(wire, sim):
    link = wire.build(sim, 1.0, None)
    seen = []
    link.deliver = lambda unit: seen.append((unit, sim.now))
    units = [wire.unit(i) for i in range(5)]
    ends = [link.submit(unit) for unit in units]
    sim.run()
    assert [unit for unit, _t in seen] == units
    for k, (_unit, at) in enumerate(seen, start=1):
        assert ends[k - 1] == pytest.approx(k * wire.unit_us)
        assert at == pytest.approx(k * wire.unit_us + 1.0 + wire.framer_us)
    assert (link.carried, link.dropped, link.blackholed) == (5, 0, 0)


@pytest.mark.parametrize("buffer", [None, 2], ids=["unbounded", "finite"])
def test_fused_hop_delivers_at_the_instants_of_the_unfused_hop(wire, buffer):
    def arrivals():
        at, out = 0.3, []
        for _ in range(10):  # back to back: the running sum an upstream link produces
            out.append(at)
            at = at + wire.unit_us
        out += [400.0] * 5 + [400.0 + wire.unit_us / 3] + [900.0, 905.5, 2000.0]
        return [(at, wire.unit(i)) for i, at in enumerate(out)]

    def build(sim):
        return wire.build(sim, 0.5, buffer)

    fused = egress_instants(build, arrivals(), True)
    unfused = egress_instants(build, arrivals(), False)
    assert fused[:3] == unfused[:3]
    if buffer is None:
        assert fused[3] == unfused[3] - len(arrivals())  # a heap entry less per unit
    else:
        assert fused[1] > 0  # the same-instant burst overflows one on the wire plus two


def test_finite_buffer_holds_one_on_the_wire_plus_its_depth(wire, sim):
    link = wire.build(sim, 0.5, 2)
    link.deliver = lambda unit: None
    for i in range(6):
        link.submit(wire.unit(i))
    assert (link.queued, link.dropped) == (3, 3)
    # a slot frees when the unit on the wire has serialized
    sim.run(until=wire.unit_us * 1.5)
    assert link.queued == 2
    link.submit(wire.unit(6))
    sim.run()
    assert (link.carried, link.dropped, link.queued) == (4, 3, 0)


def test_deliver_swapped_mid_flight_is_honoured_at_fire_time(wire, sim):
    """A fault stage attached while the unit is still inside the fused
    hop must still catch it."""
    link = wire.build(sim, 0.5, None)
    link.deliver = lambda unit: pytest.fail("the stage was attached before delivery")
    link.submit(wire.unit(0), sim.now + ASX200_FORWARD_US)
    caught = []
    sim.call_in(ASX200_FORWARD_US / 2, setattr, link, "deliver", caught.append)
    sim.run()
    assert len(caught) == 1 and link.carried == 1


@pytest.mark.parametrize("buffer", [None, 8], ids=["unbounded", "finite"])
def test_queued_counts_units_not_yet_serialized(wire, sim, buffer):
    """Not a busy flag: five units submitted read five queued, the one on
    the wire included, and fall by one per unit time."""
    link = wire.build(sim, 0.5, buffer)
    link.deliver = lambda unit: None
    for i in range(5):
        link.submit(wire.unit(i))
    assert link.queued == link.in_flight == 5
    sim.run(until=wire.unit_us * 2.5)
    assert link.queued == 3
    sim.run()
    assert link.queued == link.in_flight == 0


def test_a_link_that_is_down_blackholes_what_arrives_and_delivers_again_when_up(wire, sim):
    link = wire.build(sim, 0.5, None)
    got = []
    link.deliver = got.append
    for i in range(3):
        link.submit(wire.unit(i))
    link.up = False  # the fibre is yanked with three units on it
    sim.run()
    assert got == [] and (link.carried, link.blackholed) == (0, 3)
    assert link.in_flight == 0
    link.up = True
    link.submit(wire.unit(3))
    sim.run()
    assert len(got) == 1 and (link.carried, link.blackholed) == (1, 3)


def test_the_delivery_lane_pushes_through_the_kernels_heapq(wire, sim, monkeypatch):
    """A link's lane arms and re-arms its head through ``engine.heapq``,
    the name the heap census wraps: a private ``import heapq`` would hide
    the re-arms from its ``peak_length``."""
    real, pushes = engine.heapq, []
    monkeypatch.setattr(engine, "heapq", types.SimpleNamespace(
        heappush=lambda queue, entry: (pushes.append(entry[0]), real.heappush(queue, entry)),
        heappop=real.heappop))
    link = wire.build(sim, 0.5, None)
    link.deliver = lambda unit: None
    for i in range(3):
        link.submit(wire.unit(i))
    sim.run()
    assert link.carried == 3 and len(pushes) == 3  # one arm, two re-arms
