"""Direct tests of the analytic phase-time calculators."""

import pytest

from repro.hw import PENTIUM_120, SPARCSTATION_20
from repro.perfmodel import (
    atm_stage_costs,
    barrier_time,
    broadcast_time,
    fe_stage_costs,
    gather_time,
    sequential_fetch_time,
)

FE = fe_stage_costs(PENTIUM_120)
ATM = atm_stage_costs(SPARCSTATION_20)


def test_gather_root_is_bottleneck():
    # gather concentrates traffic: doubling senders ~doubles root time
    t4 = gather_time(FE, 4, 16_000).net_us
    t8 = gather_time(FE, 8, 16_000).net_us
    assert t8 > 1.8 * t4


def test_gather_single_node_free():
    assert gather_time(FE, 1, 10_000).net_us == 0.0


def test_broadcast_scales_with_fanout():
    t2 = broadcast_time(FE, 2, 1000).net_us
    t8 = broadcast_time(FE, 8, 1000).net_us
    # 7x the outbound packets; fixed latency terms dilute the ratio
    assert t8 > 2.5 * t2


def test_broadcast_single_node_free():
    assert broadcast_time(ATM, 1, 1000).net_us == 0.0


def test_barrier_cheaper_than_data_phases():
    assert barrier_time(FE, 8).net_us < gather_time(FE, 8, 64_000).net_us


def test_fetch_remote_fraction():
    full = sequential_fetch_time(ATM, 8192, remote_fraction=1.0).net_us
    half = sequential_fetch_time(ATM, 8192, remote_fraction=0.5).net_us
    assert half == pytest.approx(full / 2)


def test_fetch_latency_floor_for_tiny_blocks():
    # even a 1-byte fetch pays a round trip
    t = sequential_fetch_time(FE, 1).net_us
    assert t > FE.latency(16)


def test_stage_costs_fe_wire_includes_switch():
    from repro.ethernet.switch import FN100
    fe_fn100 = fe_stage_costs(PENTIUM_120, switch=FN100)
    # store-and-forward doubles the serialization component
    assert fe_fn100.wire(1000) > FE.wire(1000) * 1.5


def test_stage_costs_scale_with_cpu():
    from repro.hw import PENTIUM_90

    slow = fe_stage_costs(PENTIUM_90)
    fast = fe_stage_costs(PENTIUM_120)
    # the P90's kernel path really is slower per message
    assert slow.host_send(0) > fast.host_send(0)
    assert slow.host_recv(0) > fast.host_recv(0)
