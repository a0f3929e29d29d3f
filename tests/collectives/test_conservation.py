"""Conservation across the NIC boundary on a NIC-resident barrier.

What the NICs put on the wire is what the NICs took off it plus what
was dropped on the way, counter by counter — the first instance of the
ROADMAP's system-wide conservation checks.  A frame or cell the
collective engine consumes never reaches a host ring or an endpoint,
so it has a counter of its own (``collective_frames_received`` on the
DC21140, ``collective_cells_received`` on the PCA-200).

``Cluster.run`` is the cluster's whole life and ends closed, so there is
an in-flight term: a program that *settles* (waits out the last per-edge
ACKs and retransmit timers) before it returns closes a quiet machine,
sent = taken + dropped and the close discards nothing of the machine's
(no frame, no armed timer); one that returns the
moment its barrier releases closes with those ACKs on the wire, and they
are accounted for — the same run left to settle takes exactly them —
not lost.
"""

import pytest

from repro.analysis import backend_stats
from repro.collectives import CollectiveConfig
from repro.splitc import Cluster

NODES = 16
#: the last ACK has crossed the fabric and every per-edge retransmit
#: timer has fired and found its packet acknowledged
SETTLE_US = 2 * CollectiveConfig().rto_us


def _nic_barrier(substrate, settle_us=SETTLE_US):
    cluster = Cluster(NODES, substrate=substrate, collectives="nic")

    def program(runtime):
        yield from runtime.barrier()
        yield settle_us

    cluster.run(program)
    packets = sum(engine.packets_sent for engine in cluster.collective_engines)
    assert packets > 0
    return cluster, packets


def _fe_counts(cluster):
    nics = [host.backend.nic for host in cluster.hosts]
    network = cluster.network
    sent = sum(nic.frames_sent for nic in nics)
    taken = sum(nic.frames_received + nic.collective_frames_received for nic in nics)
    dropped = (sum(nic.rx_overflow_drops + nic.rx_crc_drops for nic in nics)
               + sum(switch.unknown_mac_drops
                     for switch in network.leaf_switches + network.spine_switches)
               + network.frames_blackholed)
    return sent, taken, dropped


def _atm_counts(cluster):
    backends = [host.backend for host in cluster.hosts]
    fabric = cluster.network
    sent = sum(backend.tx_link.cells_carried for backend in backends)
    taken = sum(backend.collective_cells_received for backend in backends)
    dropped = (sum(switch.unknown_vci_drops for switch in fabric.switches)
               + sum(backend.tx_link.cells_dropped for backend in backends)
               + fabric.cells_blackholed)
    return sent, taken, dropped


def test_fe_frames_sent_equal_frames_taken_plus_drops():
    cluster, packets = _nic_barrier("fe-clos")
    nics = [host.backend.nic for host in cluster.hosts]
    sent, taken, dropped = _fe_counts(cluster)
    assert sent == taken + dropped
    assert cluster.discarded.entries == 1  # the last program's own completion, nothing of the machine's
    assert sent == packets  # one frame per collective packet, none from the hosts
    assert sum(nic.frames_received for nic in nics) == 0  # the host rings saw none of it
    surfaced = [backend_stats(host.backend)["nic"]["collective_frames_received"]
                for host in cluster.hosts]
    assert sum(surfaced) == packets


def test_atm_cells_sent_equal_cells_taken_plus_drops():
    cluster, packets = _nic_barrier("atm-clos")
    backends = [host.backend for host in cluster.hosts]
    sent, taken, dropped = _atm_counts(cluster)
    assert sent == taken + dropped
    assert cluster.discarded.entries == 1  # the last program's own completion, nothing of the machine's
    assert sent == packets  # a barrier packet is one cell
    # no endpoint was involved on either side
    assert sum(backend.pdus_sent + backend.pdus_received for backend in backends) == 0
    surfaced = [backend_stats(backend)["collective_cells_received"] for backend in backends]
    assert sum(surfaced) == packets


@pytest.mark.parametrize("substrate, counts", [("fe-clos", _fe_counts), ("atm-clos", _atm_counts)])
def test_an_early_return_counts_what_is_in_flight(substrate, counts):
    """Returning the moment the barrier releases closes the machine with
    the last ACKs still on the wire.  They are not lost: the close
    reports queued work, and the same (deterministic) run left to settle
    takes off the wire exactly what was missing here."""
    early, _packets = _nic_barrier(substrate, settle_us=0.0)
    sent, taken, dropped = counts(early)
    in_flight = sent - taken - dropped
    assert in_flight > 0 and dropped == 0
    # every frame or cell on a wire is one queued delivery the close discarded
    assert early.discarded.entries > in_flight
    settled, _packets = _nic_barrier(substrate)
    settled_sent, settled_taken, settled_dropped = counts(settled)
    assert settled_dropped == 0
    assert settled_taken == taken + in_flight + (settled_sent - sent)
