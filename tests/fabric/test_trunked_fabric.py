"""The one contract of a trunked fabric, on every fabric built on it.

``TrunkedFabric`` (``repro.core.base``) owns trunks, ports, host
placement and trunk failure; ATM and FE differ only in their signaling
plane (VCs programmed network-wide, flat MAC tables).  Every assertion
here runs on the ATM Clos, the FE Clos and a three-switch ATM chain.
"""

from dataclasses import dataclass
from typing import Callable, Tuple

import pytest

from repro.atm import AtmFabric
from repro.atm.cells import Cell
from repro.core.errors import NoPathError
from repro.ethernet.frames import EthernetFrame
from repro.ethernet.network import RoutedFeNetwork
from repro.fabric import ClosAtmFabric, ClosFeNetwork
from repro.hw import PENTIUM_120, SPARCSTATION_20
from repro.sim import Simulator
from repro.telemetry import collect


@dataclass(frozen=True)
class Case:
    build: Callable
    cpu: object
    #: the keyword ``add_host`` places a host with
    where: str
    #: where hosts go when none is named, host by host
    fill: Tuple[int, ...]
    #: a switch no host may go on
    refused: int
    #: a switch two trunks away from switch 0
    far: int
    #: the trunks whose failure cuts switch 0 off from ``far``
    cut: Tuple[Tuple[int, int], ...]
    #: a unit the far switch drops for want of a route, and its counter
    stray: Callable
    drop_counter: str


CASES = {
    "atm-clos": Case(lambda sim: ClosAtmFabric(sim, leaves=2, spines=2, hosts_per_leaf=2),
                     SPARCSTATION_20, "switch", (0, 0, 1, 1), 2, 1, ((0, 2), (0, 3)),
                     lambda: Cell(vci=999, payload=bytes(48)), "unknown_vci_drops"),
    "fe-clos": Case(lambda sim: ClosFeNetwork(sim, leaves=2, spines=2, hosts_per_leaf=2),
                    PENTIUM_120, "leaf", (0, 0, 1, 1), 2, 1, ((0, 2), (0, 3)),
                    lambda: EthernetFrame(dst_mac=0xDEAD, src_mac=0xBEEF, dst_port=1,
                                          src_port=1, payload=bytes(100)),
                    "unknown_mac_drops"),
    "atm-chain": Case(lambda sim: AtmFabric(sim, switches=3),
                      SPARCSTATION_20, "switch", (0, 0, 0, 0), 3, 2, ((0, 1),),
                      lambda: Cell(vci=999, payload=bytes(48)), "unknown_vci_drops"),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def _fabric(closing, case):
    return closing(case.build(Simulator()))


def _pair(fabric, case):
    """An endpoint on switch 0, one on switch 0 beside it, one far away."""
    endpoints = []
    for name, switch in (("near", 0), ("beside", 0), ("far", case.far)):
        host = fabric.add_host(name, case.cpu, **{case.where: switch})
        endpoints.append(host.create_endpoint(rx_buffers=16))
    return endpoints


def _transfer(sim, src, dst, channel, payload):
    def tx():
        yield from src.send(channel, payload)

    sim.process(tx())

    def rx():
        return (yield from dst.recv())

    return sim.run_until_complete(sim.process(rx())).data


def test_trunk_ports_come_first_in_topology_order_then_hosts(closing, case):
    fabric = _fabric(closing, case)
    expected, next_port = {}, [0] * len(fabric.switches)
    for a, b in fabric.topology.trunks:
        for x, y in ((a, b), (b, a)):
            expected[(x, y)] = next_port[x]
            next_port[x] += 1
    assert fabric._trunk_port == expected
    for (a, b), port in expected.items():
        assert fabric.switches[a].ports[port] is fabric.trunk_link(a, b)
    fabric.add_host("h", case.cpu, **{case.where: 0})
    assert len(fabric.switches[0].ports) == next_port[0] + 1


def test_a_trunk_link_leads_to_the_far_switch_both_ways(closing, case):
    fabric = _fabric(closing, case)
    a, b = fabric.topology.trunks[0]
    for x, y in ((a, b), (b, a)):
        fabric.trunk_link(x, y).submit(case.stray())
        fabric.sim.run()
        assert getattr(fabric.switches[y], case.drop_counter) == 1
        assert getattr(fabric.switches[x], case.drop_counter) == (1 if x == b else 0)


def test_hosts_fill_leaves_left_to_right_and_a_missing_leaf_is_refused(closing, case):
    fabric = _fabric(closing, case)
    hosts = [fabric.add_host(f"h{i}", case.cpu) for i in range(len(case.fill))]
    assert tuple(fabric._switch_of[host.backend] for host in hosts) == case.fill
    with pytest.raises(ValueError):
        fabric.add_host("x", case.cpu, **{case.where: case.refused})
    if fabric.hosts_per_leaf is not None:  # every leaf seat taken
        with pytest.raises(ValueError):
            fabric.add_host("y", case.cpu)
    assert len(fabric.hosts) == len(case.fill)


def test_hops_are_switches_on_the_path(closing, case):
    fabric = _fabric(closing, case)
    near, beside, far = _pair(fabric, case)
    assert fabric.hops_between(near, beside) == 1
    assert fabric.hops_between(near, far) == 3


def test_a_failed_trunk_blackholes_reroutes_and_heals(closing, case):
    fabric = _fabric(closing, case)
    near, _, far = _pair(fabric, case)
    channel, _ = fabric.connect(near, far)
    payload = bytes(range(200))
    assert _transfer(fabric.sim, near, far, channel, payload) == payload
    a, b = case.cut[0]
    fabric.trunk_link(a, b).submit(case.stray())  # on the wire as it fails
    assert fabric.set_trunk_state(a, b, False) is True
    assert fabric.set_trunk_state(a, b, False) is False
    assert not fabric.trunk_link(a, b).up and not fabric.trunk_link(b, a).up
    fabric.sim.run()
    assert fabric.trunk_link(a, b).blackholed == 1
    assert getattr(fabric.switches[b], case.drop_counter) == 0
    if len(case.cut) > 1:  # a surviving spine carries the channel meanwhile
        assert _transfer(fabric.sim, near, far, channel, payload) == payload
    assert fabric.set_trunk_state(a, b, True) is True
    assert fabric.trunk_link(a, b).up and fabric.trunk_link(b, a).up
    assert fabric.reroutes > 0
    assert _transfer(fabric.sim, near, far, channel, payload) == payload


def test_a_partition_is_unreachable_and_refuses_channels(closing, case):
    fabric = _fabric(closing, case)
    near, beside, far = _pair(fabric, case)
    for a, b in case.cut:
        fabric.set_trunk_state(a, b, False)
    assert not fabric.backends_reachable(near.backend, far.backend)
    assert fabric.backends_reachable(near.backend, beside.backend)
    with pytest.raises(NoPathError):
        fabric.connect(near, far)


def test_counters_read_under_one_switch_list(closing, case):
    fabric = _fabric(closing, case)
    fabric.add_host("h", case.cpu)
    keys = list(collect(fabric))
    assert {key.split("/")[0] for key in keys} == {"reroutes", "switches", "hosts"}
    last = len(fabric.switches) - 1
    assert f"switches/{last}/ports/0/carried" in keys
    assert f"switches/{last}/{case.drop_counter}" in keys


# ------------------------------------------------- a refusal builds nothing
@pytest.mark.parametrize("build, cpu, where", [
    (lambda sim: ClosFeNetwork(sim, leaves=2, spines=1, hosts_per_leaf=1),
     PENTIUM_120, {"leaf": 5}),
    (lambda sim: ClosAtmFabric(sim, leaves=2, spines=1, hosts_per_leaf=1),
     SPARCSTATION_20, {"switch": 5}),
    (lambda sim: RoutedFeNetwork(sim, segments=2), PENTIUM_120, {"segment": 7}),
], ids=["fe-clos", "atm-clos", "fe-routed"])
def test_a_refused_host_builds_nothing(closing, build, cpu, where):
    sim = Simulator()
    network = closing(build(sim))
    first = network.add_host("a", cpu)
    live, ports = len(sim._live), sum(len(switch.ports) for switch in network.switches)
    with pytest.raises(ValueError):
        network.add_host("x", cpu, **where)
    assert len(sim._live) == live
    assert sum(len(switch.ports) for switch in network.switches) == ports
    second = network.add_host("b", cpu)
    assert network.hosts == [first, second]
    if hasattr(first.backend, "mac"):
        assert second.backend.mac == first.backend.mac + 1
