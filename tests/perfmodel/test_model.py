"""Tests for the analytic performance model."""

import pytest

from repro.apps import PAPER_MM_128, PAPER_MM_16, MatmulConfig, RadixConfig, SampleConfig
from repro.hw import PENTIUM_120, SPARCSTATION_20
from repro.perfmodel import (
    all_to_all_time,
    atm_stage_costs,
    barrier_time,
    fe_stage_costs,
    fragment_messages,
    project_matmul,
    project_radix,
    project_sample,
    sequential_fetch_time,
)
from repro.splitc import atm_cluster_cpus, fe_cluster_cpus

FE = fe_stage_costs(PENTIUM_120)
ATM = atm_stage_costs(SPARCSTATION_20)
K = 512 * 1024


# ---------------------------------------------------------------- stages


def test_fe_host_send_matches_paper_send_overhead():
    # trap path ~4.2us + descriptor push + compose copy of a tiny packet
    assert FE.host_send(0) == pytest.approx(4.2 + 0.3 + PENTIUM_120.copy_time(26), abs=0.1)


def test_atm_host_send_is_much_cheaper_than_fe():
    # Section 4.4: 1.5us (ATM host) vs 4.2us (FE host)
    assert ATM.host_send(0) < FE.host_send(0) / 2


def test_atm_nic_costs_dominate_small_messages():
    # the i960 pays ~10us send and a large receive cost per small
    # message (the paper's 13us receive figure includes host-side costs
    # our calibration attributes to the select wake-up)
    assert ATM.nic_tx(0) == pytest.approx(10.0, abs=1.5)
    assert 7.0 < ATM.nic_rx(0) < 14.0
    assert ATM.per_message_nic(0) > FE.per_message_nic(0)


def test_total_small_message_cost_favors_fe():
    # the observation driving the small-message sort results (S 5.2)
    fe_cost = max(FE.per_message_host(0), FE.per_message_nic(0), FE.wire(0))
    atm_cost = max(ATM.per_message_host(0), ATM.per_message_nic(0), ATM.wire(0))
    assert fe_cost < atm_cost


def test_bulk_bandwidth_favors_atm():
    # effective per-byte cost at maximum packet size
    fe_m = FE.max_data
    atm_m = 65509
    fe_per_byte = max(FE.per_message_host(fe_m), FE.per_message_nic(fe_m), FE.wire(fe_m)) / fe_m
    atm_per_byte = max(ATM.per_message_host(atm_m), ATM.per_message_nic(atm_m), ATM.wire(atm_m)) / atm_m
    assert atm_per_byte < fe_per_byte


def test_latency_monotone_in_size():
    for costs in (FE, ATM):
        values = [costs.latency(m) for m in (0, 100, 1000)]
        assert values == sorted(values)


def test_fragment_messages():
    assert fragment_messages(0, 100) == (1, 0)
    assert fragment_messages(100, 100) == (1, 100)
    assert fragment_messages(101, 100) == (2, 1)


# ---------------------------------------------------------------- phases


def test_all_to_all_zero_cases():
    assert all_to_all_time(FE, 1, 100, 64).net_us == 0.0
    assert all_to_all_time(FE, 4, 0, 64).net_us == 0.0


def test_all_to_all_scales_with_messages():
    t1 = all_to_all_time(FE, 4, 100, 0).net_us
    t2 = all_to_all_time(FE, 4, 200, 0).net_us
    assert t2 > 1.8 * t1


def test_barrier_grows_with_nodes():
    assert barrier_time(FE, 8).net_us > barrier_time(FE, 2).net_us
    assert barrier_time(FE, 1).net_us == 0.0


def test_fetch_time_scales_with_bytes():
    small = sequential_fetch_time(ATM, 2048).net_us
    large = sequential_fetch_time(ATM, 131072).net_us
    assert large > 10 * small


# ------------------------------------------------------------ projections


def _fe(n):
    return fe_cluster_cpus(n)


def _atm(n):
    return atm_cluster_cpus(n)


def test_projection_mm_atm_wins():
    # Section 5.2: matrix multiply favors the ATM/SPARC cluster
    for n in (2, 4, 8):
        for cfg in (PAPER_MM_128, PAPER_MM_16):
            fe = project_matmul(cfg, n, FE, _fe(n))
            atm = project_matmul(cfg, n, ATM, _atm(n))
            assert atm.total_us < fe.total_us


def test_projection_small_sorts_fe_wins():
    # Section 5.2: "the small-message versions ... are dominated by
    # network time, and Fast Ethernet outperforms ATM"
    for n in (2, 4, 8):
        for make in (lambda k: RadixConfig(k, True), lambda k: SampleConfig(k, True)):
            cfg = make(K)
            fe = (project_radix if isinstance(cfg, RadixConfig) else project_sample)(cfg, n, FE, _fe(n))
            atm = (project_radix if isinstance(cfg, RadixConfig) else project_sample)(cfg, n, ATM, _atm(n))
            assert fe.total_us < atm.total_us


def test_projection_small_sorts_network_dominated():
    for n in (4, 8):
        proj = project_radix(RadixConfig(K, True), n, FE, _fe(n))
        assert proj.net_us > 2 * proj.cpu_us


def test_projection_radix_lg_atm_wins_at_scale():
    # Section 5.2: "ATM outperforms Fast Ethernet for the large-message
    # versions ... primarily due to increased network bandwidth"
    for n in (4, 8):
        fe = project_radix(RadixConfig(K, False), n, FE, _fe(n))
        atm = project_radix(RadixConfig(K, False), n, ATM, _atm(n))
        assert atm.total_us < fe.total_us


def test_projection_large_sorts_atm_net_advantage():
    for n in (4, 8):
        for project, cfg in ((project_radix, RadixConfig(K, False)),
                             (project_sample, SampleConfig(K, False))):
            fe = project(cfg, n, FE, _fe(n))
            atm = project(cfg, n, ATM, _atm(n))
            assert atm.net_us < fe.net_us  # the bandwidth advantage itself


def test_projection_scaled_speedup():
    # Table 2: both clusters scale from 2 to 8 nodes
    for project, cfg, work_scales in (
        (project_matmul, PAPER_MM_128, False),
        (project_radix, RadixConfig(K, True), True),
        (project_sample, SampleConfig(K, False), True),
    ):
        for costs, cpus in ((FE, _fe), (ATM, _atm)):
            t2 = project(cfg, 2, costs, cpus(2)).total_us
            t8 = project(cfg, 8, costs, cpus(8)).total_us
            speedup = (t2 / t8) * (4.0 if work_scales else 1.0)
            assert speedup > 1.5  # scales meaningfully


def test_projection_time_components_positive():
    proj = project_sample(SampleConfig(1000, False), 4, FE, _fe(4))
    assert proj.cpu_us > 0 and proj.net_us > 0
    assert proj.total_us == proj.cpu_us + proj.net_us
    assert 0 < proj.cpu_us < proj.total_us
