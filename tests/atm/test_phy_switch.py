"""Tests for ATM PHY link models and the ASX-200 switch."""

import pytest

from repro.atm import (
    ASX200_FORWARD_US,
    OC3_SONET,
    TAXI_140,
    AtmSwitch,
    Cell,
    CellLink,
    aal5_segment,
)
from repro.sim import Simulator


def _cell(vci=32, last=True):
    return Cell(vci=vci, payload=bytes(48), last=last)


# ---------------------------------------------------------------- phy


def test_oc3_effective_rates():
    # SONET leaves 149.76 Mb/s for cells; payload ceiling ~135.6 Mb/s
    assert OC3_SONET.cell_rate_mbps == pytest.approx(149.76)
    assert OC3_SONET.max_payload_mbps == pytest.approx(135.6, rel=0.01)
    assert OC3_SONET.cell_time_us == pytest.approx(53 * 8 / 149.76)


def test_taxi_effective_rates():
    assert TAXI_140.cell_rate_mbps == pytest.approx(140.0)
    assert TAXI_140.max_payload_mbps == pytest.approx(126.8, rel=0.01)


def test_link_serializes_cells_back_to_back():
    sim = Simulator()
    link = CellLink(sim, TAXI_140, propagation_us=0.0)
    arrivals = []
    link.deliver = lambda cell: arrivals.append(sim.now)
    link.submit(_cell())
    link.submit(_cell())
    sim.run()
    assert arrivals[0] == pytest.approx(TAXI_140.cell_time_us)
    assert arrivals[1] - arrivals[0] == pytest.approx(TAXI_140.cell_time_us)


def test_link_propagation_and_framer_latency():
    sim = Simulator()
    link = CellLink(sim, OC3_SONET, propagation_us=1.0)
    arrivals = []
    link.deliver = lambda cell: arrivals.append(sim.now)
    link.submit(_cell())
    sim.run()
    expected = OC3_SONET.cell_time_us + 1.0 + OC3_SONET.framer_latency_us
    assert arrivals == [pytest.approx(expected)]


def test_link_counts_cells():
    sim = Simulator()
    link = CellLink(sim, TAXI_140)
    link.deliver = lambda cell: None
    for _ in range(5):
        link.submit(_cell())
    sim.run()
    assert link.cells_carried == 5


# ---------------------------------------------------------------- switch


def _switch_with_two_ports(sim):
    switch = AtmSwitch(sim)
    out0 = CellLink(sim, TAXI_140, propagation_us=0.0, name="out0")
    out1 = CellLink(sim, TAXI_140, propagation_us=0.0, name="out1")
    switch.attach_port(0, out0)
    switch.attach_port(1, out1)
    return switch, out0, out1


def test_switch_routes_by_vci():
    sim = Simulator()
    switch, out0, out1 = _switch_with_two_ports(sim)
    switch.program_route(100, 0)
    switch.program_route(101, 1)
    got0, got1 = [], []
    out0.deliver = lambda c: got0.append(c.vci)
    out1.deliver = lambda c: got1.append(c.vci)
    switch.on_cell(_cell(vci=100))
    switch.on_cell(_cell(vci=101))
    sim.run()
    assert got0 == [100]
    assert got1 == [101]
    assert switch.cells_forwarded == 2


def test_switch_forwarding_latency_is_7us():
    sim = Simulator()
    switch, out0, _ = _switch_with_two_ports(sim)
    switch.program_route(100, 0)
    arrivals = []
    out0.deliver = lambda c: arrivals.append(sim.now)
    switch.on_cell(_cell(vci=100))
    sim.run()
    assert arrivals == [pytest.approx(ASX200_FORWARD_US + TAXI_140.cell_time_us)]


def test_switch_drops_unknown_vci():
    sim = Simulator()
    switch, out0, _ = _switch_with_two_ports(sim)
    out0.deliver = lambda c: pytest.fail("cell must not be delivered")
    switch.on_cell(_cell(vci=999))
    sim.run()
    assert switch.unknown_vci_drops == 1
    assert switch.cells_forwarded == 0


def test_switch_route_to_missing_port_rejected():
    sim = Simulator()
    switch, _, _ = _switch_with_two_ports(sim)
    with pytest.raises(ValueError):
        switch.program_route(100, 7)


def test_switch_duplicate_port_rejected():
    sim = Simulator()
    switch, out0, _ = _switch_with_two_ports(sim)
    with pytest.raises(ValueError):
        switch.attach_port(0, out0)


def test_switch_preserves_cell_order_per_vci():
    sim = Simulator()
    switch, out0, _ = _switch_with_two_ports(sim)
    switch.program_route(100, 0)
    seen = []
    out0.deliver = lambda c: seen.append(c.last)
    for cell in aal5_segment(b"q" * 200, vci=100):
        switch.on_cell(cell)
    sim.run()
    assert seen[-1] is True
    assert all(flag is False for flag in seen[:-1])


# ------------------------------------------------- the fused switch hop
# A switch hands a cell to its egress link *as of* now + forward_us
# (one heap entry for hop and wire).  The reference is the unfused hop it
# replaced: a callback at that instant which then submits.  Instants are
# compared with ==, not approx: the fusion must land on the same floats.

CT = OC3_SONET.cell_time_us


def _egress_instants(arrivals, fused, buffer_cells=None, forward_us=ASX200_FORWARD_US):
    sim = Simulator()
    link = CellLink(sim, OC3_SONET, propagation_us=0.5, buffer_cells=buffer_cells)
    delivered = []
    link.deliver = lambda cell: delivered.append((cell.vci, sim.now))

    def arrive(index):
        cell = _cell(vci=index)
        if fused:
            link.submit(cell, sim.now + forward_us)
        else:
            sim.call_in(forward_us, link.submit, cell)

    for index, at in enumerate(arrivals):
        sim.call_at(at, arrive, index)
    sim.run()
    return delivered, link.cells_dropped, link.cells_carried, sim.events_processed


def _back_to_back(n):
    at, out = 0.3, []
    for _ in range(n):
        out.append(at)
        at = at + CT  # the running sum an upstream link produces
    return out


@pytest.mark.parametrize("arrivals", [
    _back_to_back(40),
    [0.0] * 6 + [1.0] * 6,                                   # same-instant bursts
    [i * 3.7 + (i % 3) * 0.11 for i in range(30)],           # gaps shorter and longer than a cell
    [0.1, 0.2, 50.0, 50.1, 50.1 + CT, 200.0, 200.0 + 2 * CT],  # idle gaps
], ids=["back-to-back", "bursts", "irregular", "idle-gaps"])
@pytest.mark.parametrize("buffer_cells", [None, 2], ids=["unbounded", "finite"])
def test_fused_hop_delivers_at_the_instants_of_the_unfused_hop(arrivals, buffer_cells):
    fused = _egress_instants(arrivals, True, buffer_cells)
    unfused = _egress_instants(arrivals, False, buffer_cells)
    assert fused[:3] == unfused[:3]
    if buffer_cells is None:
        assert fused[3] == unfused[3] - len(arrivals)  # the point: a heap entry less per cell


def test_fused_hop_into_a_finite_buffer_drops_what_the_unfused_hop_drops():
    # one cell on the wire plus two queued: each burst of six overflows
    bursts = [0.0] * 6 + [1.0] * 6 + [40.0] * 6
    fused = _egress_instants(bursts, True, buffer_cells=2)
    assert fused[:3] == _egress_instants(bursts, False, buffer_cells=2)[:3]
    assert (fused[1], fused[2]) == (3 + 6 + 3, 6)


def test_switch_hop_is_one_heap_entry_and_lands_on_the_unfused_floats():
    sim = Simulator()
    switch, out0, _ = _switch_with_two_ports(sim)
    switch.program_route(100, 0)
    arrivals = []
    out0.deliver = lambda c: arrivals.append(sim.now)
    sim.run(until=1.3)
    before = sim.events_processed
    for _ in range(3):
        switch.on_cell(_cell(vci=100))
    sim.run()
    assert sim.events_processed - before == 3
    leaves = 1.3 + ASX200_FORWARD_US
    expected, busy = [], leaves
    for _ in range(3):
        busy = busy + TAXI_140.cell_time_us
        expected.append(leaves + (busy + 0.0 + TAXI_140.framer_latency_us - leaves))
    assert arrivals == expected


def test_deliver_swapped_mid_flight_is_honoured_at_fire_time():
    """A trunk blackholed (or a fault stage attached) while the cell is
    still inside the fused hop must still catch it."""
    sim = Simulator()
    link = CellLink(sim, OC3_SONET, propagation_us=0.5)
    link.deliver = lambda cell: pytest.fail("the fibre was yanked before delivery")
    link.submit(_cell(), sim.now + ASX200_FORWARD_US)
    blackholed = []
    sim.call_in(ASX200_FORWARD_US / 2, setattr, link, "deliver", blackholed.append)
    sim.run()
    assert len(blackholed) == 1 and link.cells_carried == 1
