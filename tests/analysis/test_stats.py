"""Tests for the observability/statistics module."""

import numpy as np

from repro.analysis import am_stats, backend_stats, cluster_stats, network_stats, render_stats
from repro.apps import SampleConfig, run_sample_sort
from repro.splitc import Cluster


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
    assert len(stats["backends"]) == 2
    assert len(stats["am"]) == 2
    assert len(stats["time_breakdown"]) == 2


def test_backend_stats_fe_counters():
    cluster = _run_small_cluster()
    stats = backend_stats(cluster.hosts[0].backend)
    assert stats["messages_sent"] > 0
    assert stats["nic"]["frames_sent"] > 0
    assert stats["nic"]["dma_bytes"] > 0
    assert stats["endpoints"][0]["messages_sent"] > 0


def test_backend_stats_atm_counters():
    cluster = _run_small_cluster(substrate="atm")
    stats = backend_stats(cluster.hosts[0].backend)
    assert stats["pdus_sent"] > 0
    assert stats["crc_errors"] == 0
    assert stats["dma_bytes"] > 0


def test_am_stats_consistency():
    cluster = _run_small_cluster()
    total_sent = sum(am_stats(am)["requests_sent"] for am in cluster.ams)
    total_delivered = sum(am_stats(am)["requests_delivered"] for am in cluster.ams)
    assert total_sent > 0
    assert total_delivered == total_sent  # clean run: no losses


def test_network_stats_switch_and_medium():
    fe = _run_small_cluster()
    stats = network_stats(fe.network)
    assert stats["switches"][0]["frames_forwarded"] > 0

    atm = _run_small_cluster(substrate="atm")
    stats = network_stats(atm.network)
    assert stats["switches"][0]["cells_forwarded"] > 0

    hub = _run_small_cluster(substrate="fe-hub")
    stats = network_stats(hub.network)
    assert stats["media"][0]["frames_carried"] > 0


def test_render_stats_readable():
    cluster = _run_small_cluster()
    text = render_stats(cluster_stats(cluster))
    assert "substrate: fe-switch" in text
    assert "frames_sent" in text


def test_frame_conservation_invariant():
    """Frames sent by all NICs == frames forwarded by the switch
    (full-duplex switch, no drops in a clean run)."""
    cluster = _run_small_cluster()
    sent = sum(backend_stats(h.backend)["nic"]["frames_sent"] for h in cluster.hosts)
    received = sum(backend_stats(h.backend)["nic"]["frames_received"] for h in cluster.hosts)
    forwarded = network_stats(cluster.network)["switches"][0]["frames_forwarded"]
    assert sent == forwarded == received
