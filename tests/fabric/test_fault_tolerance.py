"""Failure-aware routing: trunk state, re-keying, reroutes, path MTU."""

import pytest

from repro.core.errors import NoPathError
from repro.ethernet.frames import UNET_FE_MAX_PDU
from repro.fabric import MixedFabric
from repro.fabric.topology import Topology, clos_topology
from repro.hw import PENTIUM_120, SPARCSTATION_20
from repro.sim import Simulator


def _transfer(sim, src, dst, channel, payload):
    def tx():
        yield from src.send(channel, payload)

    sim.process(tx())

    def rx():
        return (yield from dst.recv())

    return sim.run_until_complete(sim.process(rx()))


# ------------------------------------------------------------------ topology
def test_trunk_state_reshapes_the_path_set():
    topo = clos_topology(2, 3)  # leaves 0-1, spines 2-4
    assert len(topo.shortest_paths(0, 1)) == 3
    assert topo.set_trunk(0, 2, False)
    assert not topo.set_trunk(0, 2, False)  # idempotent: no change
    assert not topo.trunk_up(0, 2)
    paths = topo.shortest_paths(0, 1)
    assert len(paths) == 2
    assert all(path[1] != 2 for path in paths)  # nothing via the dead spine
    # keyed spreading only rotates over survivors
    assert {tuple(topo.path(0, 1, key=k)) for k in range(6)} == {
        (0, 3, 1), (0, 4, 1)}
    assert topo.set_trunk(0, 2, True)
    assert len(topo.shortest_paths(0, 1)) == 3


def test_cutting_every_uplink_is_a_typed_partition():
    topo = clos_topology(2, 2)
    topo.set_trunk(0, 2, False)
    assert topo.connected(0, 1)
    topo.set_trunk(0, 3, False)
    assert not topo.connected(0, 1)
    with pytest.raises(NoPathError) as err:
        topo.shortest_paths(0, 1)
    assert err.value.src == 0 and err.value.dst == 1
    with pytest.raises(ValueError):  # NoPathError is also a ValueError
        topo.shortest_paths(0, 1)


def test_shortest_paths_respects_and_isolates_the_limit_cap():
    """A capped query returns exactly ``limit`` paths, and the cap is
    part of the cache key — a small-limit result must not satisfy a
    later query with a larger cap (the cache-poisoning regression)."""
    topo = clos_topology(2, 8)
    assert len(topo.shortest_paths(0, 1, limit=3)) == 3
    assert len(topo.shortest_paths(0, 1, limit=1)) == 1
    # larger cap after the capped queries still sees every path
    assert len(topo.shortest_paths(0, 1)) == 8
    assert len(topo.shortest_paths(0, 1, limit=64)) == 8
    # capped enumeration is still lexicographic and valid
    capped = topo.shortest_paths(0, 1, limit=3)
    assert capped == sorted(capped)
    assert capped == topo.shortest_paths(0, 1)[:3]


# -------------------------------------------------------------------- mixed
def test_mixed_mtu_cap_survives_atm_leg_failover(closing):
    """The relay's path-MTU discipline is not route-dependent: after the
    ATM leg fails over to another spine, an ATM-side sender still sees
    the FE frame cap and a cap-sized message still crosses the splice."""
    sim = Simulator()
    fabric = closing(MixedFabric(sim, hosts_per_leaf=2))
    atm_host = fabric.add_host("a0", SPARCSTATION_20)  # sides alternate: ATM,
    fe_host = fabric.add_host("f0", PENTIUM_120)       # then FE
    atm_ep = atm_host.create_endpoint(rx_buffers=16)
    fe_ep = fe_host.create_endpoint(rx_buffers=16)
    ch_a, _ = fabric.connect(atm_ep, fe_ep)
    assert atm_host.backend.max_pdu == UNET_FE_MAX_PDU
    payload = b"m" * UNET_FE_MAX_PDU
    assert _transfer(sim, atm_ep, fe_ep, ch_a, payload).data == payload
    # fail the ATM leaf-0 uplink to spine 2; the ATM leg of the spliced
    # channel re-routes via spine 3 while the FE leg is untouched
    assert fabric.atm.set_trunk_state(0, 2, False)
    assert atm_host.backend.max_pdu == UNET_FE_MAX_PDU  # cap unchanged
    assert _transfer(sim, atm_ep, fe_ep, ch_a, payload).data == payload
