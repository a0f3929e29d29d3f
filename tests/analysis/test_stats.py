"""Tests for the observability/statistics module and the registry under it."""

from repro.analysis import cluster_stats, render_stats
from repro.apps import SampleConfig, run_sample_sort
from repro.splitc import Cluster
from repro.telemetry import collect, read, total


def _run_small_cluster(substrate="fe-switch"):
    cluster = Cluster(2, substrate=substrate)
    run_sample_sort(cluster, SampleConfig(keys_per_node=64, small_messages=False))
    return cluster


def test_cluster_stats_structure():
    cluster = _run_small_cluster()
    stats = cluster_stats(cluster)
    assert stats["nodes"] == 2
    assert stats["substrate"] == "fe-switch"
    assert stats["elapsed_us"] > 0
    assert stats["network/hosts/1/backend/endpoints/0/messages_sent"] > 0
    assert stats["ams/1/requests_sent"] > 0
    assert stats["ams/1/peers/0/retransmissions"] == 0
    assert stats["runtimes/1/barriers_entered"] > 0


def test_backend_stats_fe_counters():
    cluster = _run_small_cluster()
    stats = collect(cluster.hosts[0].backend)
    assert stats["pdus_sent"] > 0
    assert stats["nics/0/frames_sent"] > 0
    assert stats["nics/0/dma/bytes_transferred"] > 0
    assert stats["nics/0/attachment/uplink/carried"] > 0
    assert stats["endpoints/0/messages_sent"] > 0


def test_backend_stats_atm_counters():
    cluster = _run_small_cluster(substrate="atm")
    stats = collect(cluster.hosts[0].backend)
    assert stats["pdus_sent"] > 0
    assert stats["crc_errors"] == 0
    assert stats["dma/bytes_transferred"] > 0
    assert stats["tx_link/carried"] > 0


def test_am_stats_consistency():
    cluster = _run_small_cluster()
    total_sent = sum(read(am)["requests_sent"] for am in cluster.ams)
    total_delivered = sum(read(am)["requests_delivered"] for am in cluster.ams)
    assert total_sent > 0
    assert total_delivered == total_sent  # clean run: no losses
    assert total(cluster.ams, "retransmissions") == 0


def test_network_stats_switch_and_medium():
    fe = _run_small_cluster()
    assert collect(fe.network)["switch/frames_forwarded"] > 0

    atm = _run_small_cluster(substrate="atm")
    assert collect(atm.network)["switches/0/cells_forwarded"] > 0

    hub = _run_small_cluster(substrate="fe-hub")
    assert collect(hub.network)["medium/frames_carried"] > 0


def test_render_stats_readable():
    cluster = _run_small_cluster()
    text = render_stats(cluster_stats(cluster))
    assert "substrate: fe-switch" in text
    assert "network/hosts/0/backend/nics/0/frames_sent: " in text


def test_frame_conservation_invariant():
    """Frames sent by all NICs == frames forwarded by the switch
    (full-duplex switch, no drops in a clean run)."""
    cluster = _run_small_cluster()
    sent = total(cluster.hosts, "frames_sent")
    received = total(cluster.hosts, "frames_received")
    forwarded = read(cluster.network.switch)["frames_forwarded"]
    assert sent == forwarded == received


def test_collect_keys_every_part_by_its_path():
    """Lists are keyed by index, dicts by key, an undeclared part (or
    None) adds nothing, and gauges are read when collected."""

    class Link:
        COUNTERS = ("carried", "queued")

        def __init__(self):
            self.carried = 0
            self.backlog = []

        @property
        def queued(self):
            return len(self.backlog)

    class Switch:
        COUNTERS = ("forwarded",)
        PARTS = ("ports", "trunks", "spare")

        def __init__(self):
            self.forwarded = 3
            self.ports = [Link(), Link()]
            self.trunks = {"up": Link()}
            self.spare = None

    switch = Switch()
    switch.ports[1].backlog.append("cell")
    assert collect(switch) == {
        "forwarded": 3,
        "ports/0/carried": 0, "ports/0/queued": 0,
        "ports/1/carried": 0, "ports/1/queued": 1,
        "trunks/up/carried": 0, "trunks/up/queued": 0,
    }
    assert total(switch, "queued") == 1
    assert read(switch) == {"forwarded": 3}
