"""Tenant QoS classes, admission control, and the shared drop vocabulary.

The cross-substrate tests pin satellite invariants: every backend —
Fast Ethernet, ATM, and the live OS-socket substrate — refuses endpoint
creation with the same typed error, counts it under the same
``admission_rejected_drops`` name, and speaks the full
:data:`~repro.core.endpoint.DROP_COUNTERS` vocabulary from all three
accounting layers (endpoint, demux, backend).
"""

import pytest

from repro.core import EndpointConfig
from repro.core.endpoint import DROP_COUNTERS
from repro.core.errors import AdmissionRejected
from repro.core.health import POLICY_BACKPRESSURE, POLICY_QUARANTINE
from repro.core.tenancy import (
    QOS_BEST_EFFORT,
    QOS_CLASSES,
    QOS_GOLD,
    QOS_SILVER,
    AdmissionConfig,
    AdmissionController,
    QosClass,
    qos_class,
)
from repro.hw import PENTIUM_120
from repro.sim import Simulator
from repro.telemetry import read

_SMALL = EndpointConfig(num_buffers=8, buffer_size=64,
                        send_queue_depth=4, recv_queue_depth=4)


# ------------------------------------------------------------- QoS classes


def test_stock_tiers_and_lookup():
    assert set(QOS_CLASSES) == {QOS_GOLD, QOS_SILVER, QOS_BEST_EFFORT}
    assert qos_class(QOS_GOLD).name == QOS_GOLD
    # empty/unknown tenants ride in the cheapest class
    assert qos_class("").name == QOS_BEST_EFFORT
    assert qos_class("platinum").name == QOS_BEST_EFFORT
    # only best-effort may be refused to protect the paid tiers
    gold, silver, be = (QOS_CLASSES[n] for n in (QOS_GOLD, QOS_SILVER,
                                                 QOS_BEST_EFFORT))
    assert be.preemptable and not gold.preemptable and not silver.preemptable


def test_qos_class_validation():
    with pytest.raises(ValueError, match="explode"):
        QosClass(name="x", health_policy="explode")


def test_tier_derived_endpoint_and_health_configs():
    gold = qos_class(QOS_GOLD)
    # paid tiers self-relieve; best-effort is latched outright
    assert gold.health_config().policy == POLICY_BACKPRESSURE
    assert qos_class(QOS_BEST_EFFORT).health_config().policy == POLICY_QUARANTINE
    # overrides win over the tier default
    override = gold.health_config(policy=POLICY_QUARANTINE, check_period_us=50.0)
    assert override.policy == POLICY_QUARANTINE
    assert override.check_period_us == 50.0


# --------------------------------------------------------------- admission


def test_admission_config_validation_and_limit():
    with pytest.raises(ValueError):
        AdmissionConfig(max_endpoints=0)
    with pytest.raises(ValueError):
        AdmissionConfig(reserved_fraction=1.0)
    assert AdmissionConfig(max_endpoints=10,
                           reserved_fraction=0.25).preemptable_limit == 7


def test_best_effort_is_refused_first_paid_admitted_to_the_cap():
    ctrl = AdmissionController(AdmissionConfig(max_endpoints=4,
                                               reserved_fraction=0.5))
    gold, be = qos_class(QOS_GOLD), qos_class(QOS_BEST_EFFORT)
    ctrl.admit("t0", be)
    ctrl.admit("t1", be)
    # occupancy hit the preemptable limit (2): best-effort refused ...
    with pytest.raises(AdmissionRejected) as info:
        ctrl.admit("t2", be)
    assert info.value.tenant == "t2"
    assert info.value.qos == QOS_BEST_EFFORT
    assert "reserved" in info.value.reason
    # ... while paid classes keep landing until the hard cap
    ctrl.admit("t3", gold)
    ctrl.admit("t4", gold)
    with pytest.raises(AdmissionRejected) as info:
        ctrl.admit("t5", gold)
    assert "capacity" in info.value.reason
    stats = read(ctrl)
    assert stats["occupancy"] == stats["max_endpoints"] == 4
    assert stats["admitted"] == 4
    assert stats["rejected"] == 2
    assert stats["rejected_by_class"] == {QOS_BEST_EFFORT: 1, QOS_GOLD: 1}


def test_release_returns_the_slot_and_never_goes_negative():
    ctrl = AdmissionController(AdmissionConfig(max_endpoints=2))
    gold = qos_class(QOS_GOLD)
    ctrl.admit("t0", gold)
    ctrl.admit("t0", gold)
    with pytest.raises(AdmissionRejected):
        ctrl.admit("t1", gold)
    assert read(ctrl)["tenants"] == 1
    ctrl.release("t0")
    ctrl.admit("t1", gold)  # the slot came back
    assert read(ctrl)["tenants"] == 2
    # over-release never goes negative
    for _ in range(5):
        ctrl.release("t0")
        ctrl.release("t1")
    assert ctrl.occupancy == 0
    assert read(ctrl)["tenants"] == 0


# -------------------------------------------------- cross-substrate parity


def _sim_host(substrate):
    sim = Simulator()
    if substrate == "atm":
        from repro.atm import AtmNetwork

        net = AtmNetwork(sim)
    else:
        from repro.ethernet import SwitchedNetwork

        net = SwitchedNetwork(sim)
    host = net.add_host("rx", PENTIUM_120)
    return host.backend, lambda tenant, qos: host.create_endpoint(
        config=_SMALL, rx_buffers=2, tenant=tenant, qos=qos)


def _live_node():
    from repro.live import available_transport_kinds, make_transport
    from repro.live.backend import LiveCluster
    from repro.live.clock import WallClock

    kinds = available_transport_kinds()
    if not kinds:
        pytest.skip("no live datagram transport available on this machine")
    cluster = LiveCluster(lambda name: make_transport(kinds[0], name), WallClock())
    node = cluster.add_node("rx")
    creator = lambda tenant, qos: node.create_user_endpoint(
        config=_SMALL, rx_buffers=2, tenant=tenant, qos=qos)
    return node, creator, cluster


@pytest.mark.parametrize("substrate", ["ethernet", "atm", "live"])
def test_admission_and_drop_vocabulary_parity(substrate):
    """Every substrate: same typed refusal, same counter name, same
    drop-stats key set on backend, demux, and endpoint."""
    cluster = None
    if substrate == "live":
        backend, create, cluster = _live_node()
    else:
        backend, create = _sim_host(substrate)
    try:
        backend.admission = AdmissionController(
            AdmissionConfig(max_endpoints=4, reserved_fraction=0.5))
        users = [create("t0", QOS_BEST_EFFORT), create("t1", QOS_GOLD)]
        with pytest.raises(AdmissionRejected) as info:
            create("t2", QOS_BEST_EFFORT)  # preemptable limit (2) reached
        assert info.value.tenant == "t2"
        assert info.value.qos == QOS_BEST_EFFORT
        create("t3", QOS_GOLD)  # reserved slice still open for paid
        create("t4", QOS_GOLD)  # ... up to the hard cap
        with pytest.raises(AdmissionRejected):
            create("t5", QOS_GOLD)

        stats = backend.drop_stats()
        assert set(stats) == set(DROP_COUNTERS)
        assert stats["admission_rejected_drops"] == 2
        assert set(users[0].endpoint.drop_stats()) == set(DROP_COUNTERS)
        assert users[0].endpoint.tenant == "t0"
        assert users[1].endpoint.qos == QOS_GOLD

        # destruction returns the slot on every substrate the same way
        if substrate == "live":
            backend.destroy_endpoint(users[1].endpoint)
        else:
            users[1].close()
        assert backend.admission.occupancy == 3
        create("t6", QOS_GOLD)
    finally:
        if cluster is not None:
            cluster.close()


@pytest.mark.parametrize("substrate", ["ethernet", "atm"])
def test_hosts_without_admission_are_unchanged(substrate):
    backend, create = _sim_host(substrate)
    for i in range(8):  # no controller: nothing is ever refused
        create(f"t{i}", QOS_BEST_EFFORT)
    assert backend.drop_stats()["admission_rejected_drops"] == 0
