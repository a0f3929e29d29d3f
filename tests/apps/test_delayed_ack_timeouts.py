"""Why ``splitc-apps`` books AM timeouts on a lossless network — pinned.

perfbench's ``splitc-apps`` runs two radix sorts on 4 nodes: the
small-message sort on ``atm`` (128 keys per node) and the bulk one on
``fe-switch`` (1 024).  Read through :mod:`repro.telemetry`, every run
of seeds 1-3 says the same three things:

* every AM timeout is node 3's (9 / 9 / 8 on ATM, 6 / 6 / 6 on FE);
* every retransmission arrives as a duplicate — nothing it resends was
  missing;
* every drop counter anywhere in the cluster reads 0.

So nothing is lost: the ack is late.  The first pass of the ATM sort
shows how (``test_node_3s_ack_lands_after_its_rto_check``, the table in
EXPERIMENTS.md).  Nodes 1-3 each send node 0 a 16 410-byte histogram
block at ~300 µs; the three share node 0's downlink (a 3→1 incast) and
land at 3 818, 4 113 and 4 243 µs.  Node 0 dispatches them in turn,
~425 µs of merge each before the ack goes out, so node 3's ack leaves
at 4 978 µs and is taken at 7 227 µs.  Node 3's retransmission timer,
armed since t = 0, checks every RTO/2 = 2 000 µs against the last ack
progress (209 µs): at 6 000 µs it finds the request unacknowledged and
fires the fixed 4 000 µs RTO.  Nodes 1 and 2 took their acks before
that check.  A fix (RTO or ack policy) moves ``splitc-apps``' simulated
figures, so it waits for the round's one re-baseline (ROADMAP item 3).

The timeline needs hooks the system does not yet offer: when an ack is
sent and when it is processed are silent transitions (``_prepare`` and
``_process_ack`` are wrapped here), as is a PDU reaching an endpoint
(``deliver``).  They are the requirements list of ROADMAP item 2(c).
"""

import pytest

from repro.apps import RadixConfig, run_radix_sort
from repro.core.endpoint import DROP_COUNTERS
from repro.splitc import Cluster
from repro.telemetry import collect, read, total

#: name -> (substrate, keys per node, small messages): splitc-apps' sorts
SORTS = {"rsortsm": ("atm", 128, True), "rsortlg": ("fe-switch", 1024, False)}
#: AM timeouts at seeds 1, 2, 3 — every one of them node 3's
TIMEOUTS = {"rsortsm": (9, 9, 8), "rsortlg": (6, 6, 6)}
SEEDS = (1, 2, 3)


def _watch_first_pass(cluster):
    """Per-sender timeline of the first 16 KB block each of nodes 1-3
    sends node 0 (its AM seq 1), filled in while the sort runs."""
    rows = {node: {} for node in (1, 2, 3)}
    am0 = cluster.ams[0]

    def observer(node):
        def seen(kind, fields):
            if node in rows and fields["peer"] == 0:
                if kind == "tx" and fields["seq"] == 1:
                    rows[node].setdefault("send", fields["t"])
                elif kind == "timeout":
                    rows[node].setdefault("rto_fired", fields["t"])
            elif node == 0 and kind == "dispatch" and fields["seq"] == 1:
                rows[fields["peer"]].setdefault("dispatch", fields["t"])
        return seen

    for am in cluster.ams:
        am.observer = observer(am.node)
        prepare, process_ack = am._prepare, am._process_ack

        def ack_sent(peer, packet, track, am=am, prepare=prepare):
            wire = prepare(peer, packet, track)  # stamps the piggybacked ack
            if am.node == 0 and packet.ack >= 2 and "dispatch" in rows[peer.node]:
                rows[peer.node].setdefault("ack_sent", am._now())
            return wire

        def ack_taken(peer, ack, am=am, process_ack=process_ack):
            process_ack(peer, ack)
            if am.node in rows and peer.node == 0 and ack >= 2:
                rows[am.node].setdefault("ack_processed", am._now())

        am._prepare, am._process_ack = ack_sent, ack_taken

    endpoint = cluster.endpoints[0].endpoint
    deliver = endpoint.deliver

    def delivered(descriptor):
        taken = deliver(descriptor)
        if descriptor.length > 16_000:
            sender = am0._peers_by_channel[descriptor.channel_id].node
            rows[sender].setdefault("delivered", cluster.sim.now)
        return taken

    endpoint.deliver = delivered
    return rows


@pytest.fixture(scope="module")
def runs():
    out = {}
    for name, (substrate, keys, small) in SORTS.items():
        for seed in SEEDS:
            cluster = Cluster(4, substrate=substrate)
            rows = _watch_first_pass(cluster) if (name, seed) == ("rsortsm", 1) else None
            run_radix_sort(cluster, RadixConfig(keys, small, seed=seed))
            out[name, seed] = cluster, rows
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SORTS))
def test_every_timeout_is_node_3s_and_every_retransmission_a_duplicate(runs, name, seed):
    cluster, _rows = runs[name, seed]
    assert [total(am, "timeouts") for am in cluster.ams] == [0, 0, 0, TIMEOUTS[name][seed - 1]]
    rexmit = total(cluster.ams, "retransmissions")
    assert rexmit == total(cluster.ams, "duplicates") == TIMEOUTS[name][seed - 1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SORTS))
def test_no_drop_counter_anywhere_moves(runs, name, seed):
    cluster, _rows = runs[name, seed]
    counters = collect(cluster)
    drops = {key: value for key, value in counters.items()
             if "drop" in key.rpartition("/")[2]}
    # every backend and endpoint speaks the whole vocabulary ...
    for backend in (host.backend for host in cluster.hosts):
        assert set(DROP_COUNTERS) <= set(read(backend))
    assert len(drops) > len(DROP_COUNTERS) * 2 * cluster.n
    # ... and nothing, on any NI, endpoint, link or switch, was lost
    assert not any(drops.values()), {k: v for k, v in drops.items() if v}


def test_node_3s_ack_lands_after_its_rto_check(runs):
    _cluster, rows = runs["rsortsm", 1]
    step = {node: {k: round(v, 2) for k, v in row.items()} for node, row in rows.items()}
    assert step[3] == {"send": 323.03, "delivered": 4242.74, "dispatch": 4553.8,
                       "ack_sent": 4978.19, "rto_fired": 6000.0, "ack_processed": 7227.23}
    # the incast: node 3's block is the last of three to come off node 0's downlink
    assert [step[n]["delivered"] for n in (1, 2, 3)] == [3817.77, 4112.94, 4242.74]
    # nodes 1 and 2 took their acks before the 6 000 µs check; node 3 after
    assert [step[n]["ack_processed"] < 6000.0 for n in (1, 2, 3)] == [True, True, False]
    assert "rto_fired" not in step[1] and "rto_fired" not in step[2]
