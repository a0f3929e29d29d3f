"""Partition-aware degradation: the cluster monitor's mode machine."""

import pytest

from repro.core.cluster import (
    MODE_DEGRADED,
    MODE_ISOLATED,
    MODE_NORMAL,
    ClusterPartitionMonitor,
)
from repro.core.errors import ClusterPartitionError
from repro.telemetry import read

HOSTS = ["h0", "h1", "h2", "h3"]


def _full_mesh(monitor, hosts=HOSTS):
    for h in hosts:
        monitor.report_reachability(h, [p for p in hosts if p != h])


def test_unreported_cluster_is_optimistically_normal():
    monitor = ClusterPartitionMonitor(HOSTS)
    assert all(monitor.mode(h) == MODE_NORMAL for h in HOSTS)
    for h in HOSTS:
        monitor.check(h)  # must not raise


def test_monitor_rejects_degenerate_clusters_and_strangers():
    with pytest.raises(ValueError):
        ClusterPartitionMonitor(["alone"])
    monitor = ClusterPartitionMonitor(HOSTS)
    with pytest.raises(ValueError):
        monitor.report_reachability("ghost", HOSTS)
    with pytest.raises(ValueError):
        monitor.mode("ghost")


def test_minority_isolates_and_majority_degrades():
    monitor = ClusterPartitionMonitor(HOSTS)
    _full_mesh(monitor)
    assert all(monitor.mode(h) == MODE_NORMAL for h in HOSTS)
    # h3 falls off: both sides stop claiming the edge
    monitor.report_reachability("h3", [])
    for h in ("h0", "h1", "h2"):
        monitor.report_reachability(h, [p for p in ("h0", "h1", "h2")
                                        if p != h])
    assert monitor.mode("h3") == MODE_ISOLATED
    for h in ("h0", "h1", "h2"):
        assert monitor.mode(h) == MODE_DEGRADED
        monitor.check(h)  # degraded majority keeps serving
    with pytest.raises(ClusterPartitionError) as err:
        monitor.check("h3")
    assert err.value.host == "h3"
    assert list(err.value.component) == ["h3"]


def test_one_sided_suspicion_is_not_a_partition():
    """An edge survives unless *both* ends drop the claim — a one-way
    report (lost heartbeat, slow link) must not split the cluster."""
    monitor = ClusterPartitionMonitor(HOSTS)
    _full_mesh(monitor)
    monitor.report_reachability("h0", ["h1", "h2"])  # h0 stops seeing h3
    assert all(monitor.mode(h) == MODE_NORMAL for h in HOSTS)


def test_even_split_breaks_ties_deterministically():
    """A 2-2 split has no majority; the component holding the
    sort-first member wins the degraded role so both sides converge on
    the same answer without communicating."""
    monitor = ClusterPartitionMonitor(HOSTS)
    for h, peers in (("h0", ["h1"]), ("h1", ["h0"]),
                     ("h2", ["h3"]), ("h3", ["h2"])):
        monitor.report_reachability(h, peers)
    assert monitor.mode("h0") == MODE_DEGRADED
    assert monitor.mode("h1") == MODE_DEGRADED
    assert monitor.mode("h2") == MODE_ISOLATED
    assert monitor.mode("h3") == MODE_ISOLATED


def test_heal_records_a_recovery_snapshot():
    t = [0.0]
    monitor = ClusterPartitionMonitor(HOSTS, clock=lambda: t[0])
    _full_mesh(monitor)
    t[0] = 100.0
    monitor.report_reachability("h3", [])
    for h in ("h0", "h1", "h2"):
        monitor.report_reachability(h, [p for p in ("h0", "h1", "h2")
                                        if p != h])
    assert read(monitor)["partitioned_at"] == 100.0
    t[0] = 350.0
    _full_mesh(monitor)
    assert all(monitor.mode(h) == MODE_NORMAL for h in HOSTS)
    snap = read(monitor)
    assert snap["partitioned_at"] is None
    (rec,) = snap["recovery_log"]
    assert rec["partitioned_at"] == 100.0
    assert rec["healed_at"] == 350.0
    assert rec["recovery_us"] == 250.0
    assert rec["minority"] == ["h3"]
