"""Conservation across the NIC boundary on a NIC-resident barrier.

What the NICs put on the wire is what the NICs took off it plus what
was dropped on the way, counter by counter — the first instance of the
ROADMAP's system-wide conservation checks.  A frame or cell the
collective engine consumes never reaches a host ring or an endpoint,
so it has a counter of its own (``collective_frames_received`` on the
DC21140, ``collective_cells_received`` on the PCA-200).
"""

from repro.analysis import backend_stats
from repro.splitc import Cluster

NODES = 16


def _nic_barrier(substrate):
    cluster = Cluster(NODES, substrate=substrate, collectives="nic")

    def program(runtime):
        yield from runtime.barrier()

    cluster.run(program)
    cluster.sim.run()  # nothing left in flight
    packets = sum(engine.packets_sent for engine in cluster.collective_engines)
    assert packets > 0
    return cluster, packets


def test_fe_frames_sent_equal_frames_taken_plus_drops():
    cluster, packets = _nic_barrier("fe-clos")
    nics = [host.backend.nic for host in cluster.hosts]
    network = cluster.network
    sent = sum(nic.frames_sent for nic in nics)
    taken = sum(nic.frames_received + nic.collective_frames_received for nic in nics)
    dropped = (sum(nic.rx_overflow_drops + nic.rx_crc_drops for nic in nics)
               + sum(switch.unknown_mac_drops
                     for switch in network.leaf_switches + network.spine_switches)
               + network.frames_blackholed)
    assert sent == taken + dropped
    assert sent == packets  # one frame per collective packet, none from the hosts
    assert sum(nic.frames_received for nic in nics) == 0  # the host rings saw none of it
    surfaced = [backend_stats(host.backend)["nic"]["collective_frames_received"]
                for host in cluster.hosts]
    assert sum(surfaced) == packets


def test_atm_cells_sent_equal_cells_taken_plus_drops():
    cluster, packets = _nic_barrier("atm-clos")
    backends = [host.backend for host in cluster.hosts]
    fabric = cluster.network
    sent = sum(backend.tx_link.cells_carried for backend in backends)
    taken = sum(backend.collective_cells_received for backend in backends)
    dropped = (sum(switch.unknown_vci_drops for switch in fabric.switches)
               + sum(backend.tx_link.cells_dropped for backend in backends)
               + fabric.cells_blackholed)
    assert sent == taken + dropped
    assert sent == packets  # a barrier packet is one cell
    # no endpoint was involved on either side
    assert sum(backend.pdus_sent + backend.pdus_received for backend in backends) == 0
    surfaced = [backend_stats(backend)["collective_cells_received"] for backend in backends]
    assert sum(surfaced) == packets
