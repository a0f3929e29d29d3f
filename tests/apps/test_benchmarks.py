"""Correctness tests for the Split-C benchmark suite (small scales).

Every ``run_*`` checks its own answer and raises ``WrongResult`` on a
wrong one, so a run that returns is a run that verified."""

import numpy as np
import pytest

from repro.apps import (
    MatmulConfig,
    RadixConfig,
    SampleConfig,
    WrongResult,
    matmul,
    radix_sort,
    run_matmul,
    run_radix_sort,
    run_sample_sort,
    sample_sort,
)
from repro.apps.radix_sort import initial_keys as radix_keys
from repro.splitc import Cluster


def plant_wrong_answer(module, factory: str, array: str, monkeypatch) -> None:
    """Wrap ``module.factory``'s program so that, once it has finished,
    node 0 bumps element 0 of ``array``: a wrong answer the runner must
    find in the heap."""
    original = getattr(module, factory)

    def wrapped_factory(cfg):
        program = original(cfg)

        def wrapped(rt):
            result = yield from program(rt)
            if rt.node == 0:
                rt.local(array)[0] += 1
            return result

        return wrapped

    monkeypatch.setattr(module, factory, wrapped_factory)


@pytest.mark.parametrize("module,factory,array,run,cfg", [
    (radix_sort, "radix_program", "rx_src", run_radix_sort, RadixConfig(64, False, radix_bits=8)),
    (sample_sort, "sample_program", "ss_recv", run_sample_sort, SampleConfig(64, False)),
    (matmul, "matmul_program", "mm_c", run_matmul, MatmulConfig(blocks=2, block_size=4)),
], ids=["radix", "sample", "matmul"])
def test_a_wrong_answer_raises(module, factory, array, run, cfg, monkeypatch):
    plant_wrong_answer(module, factory, array, monkeypatch)
    with pytest.raises(WrongResult, match="2-node fe-switch: the heap does not hold"):
        run(Cluster(2, substrate="fe-switch"), cfg)


# ---------------------------------------------------------------- matmul


@pytest.mark.parametrize("substrate", ["fe-switch", "atm"])
def test_matmul_correct(substrate):
    cl = Cluster(4, substrate=substrate)
    cfg = MatmulConfig(blocks=4, block_size=8)
    result = run_matmul(cl, cfg)
    assert result.elapsed_us > 0
    assert len(result.per_node_cpu_us) == 4


def test_matmul_single_node():
    cl = Cluster(1, substrate="fe-switch")
    cfg = MatmulConfig(blocks=2, block_size=4)
    run_matmul(cl, cfg)


def test_matmul_uneven_block_ownership():
    # 3 nodes, 2x2=4 blocks: one node owns two blocks
    cl = Cluster(3, substrate="fe-switch")
    cfg = MatmulConfig(blocks=2, block_size=4)
    run_matmul(cl, cfg)


def test_matmul_larger_blocks_than_packets():
    # a 16x16 float64 block (2 KB) spans multiple AM packets
    cl = Cluster(2, substrate="fe-switch")
    cfg = MatmulConfig(blocks=2, block_size=16)
    run_matmul(cl, cfg)


def test_matmul_time_scales_down_with_nodes():
    cfg = MatmulConfig(blocks=4, block_size=8)
    t2 = run_matmul(Cluster(2, substrate="fe-switch"), cfg).elapsed_us
    t4 = run_matmul(Cluster(4, substrate="fe-switch"), cfg).elapsed_us
    assert t4 < t2


# ---------------------------------------------------------------- radix


@pytest.mark.parametrize("substrate", ["fe-switch", "atm"])
@pytest.mark.parametrize("small", [True, False])
def test_radix_sorts_correctly(substrate, small):
    n = 3
    cfg = RadixConfig(keys_per_node=256, small_messages=small, radix_bits=8)
    cl = Cluster(n, substrate=substrate)
    result = run_radix_sort(cl, cfg)
    assert result.elapsed_us > 0


def test_radix_small_vs_large_message_count():
    cfg_sm = RadixConfig(keys_per_node=256, small_messages=True, radix_bits=8)
    cfg_lg = RadixConfig(keys_per_node=256, small_messages=False, radix_bits=8)
    cl_sm = Cluster(2, substrate="fe-switch")
    cl_lg = Cluster(2, substrate="fe-switch")
    run_radix_sort(cl_sm, cfg_sm)
    run_radix_sort(cl_lg, cfg_lg)
    sm_msgs = sum(am.requests_sent for am in cl_sm.ams)
    lg_msgs = sum(am.requests_sent for am in cl_lg.ams)
    assert sm_msgs > 3 * lg_msgs  # two keys/message really is chattier


def test_radix_odd_key_counts():
    cfg = RadixConfig(keys_per_node=129, small_messages=True, radix_bits=8)
    n = 2
    cl = Cluster(n, substrate="fe-switch")
    run_radix_sort(cl, cfg)


def test_radix_deterministic_inputs():
    cfg = RadixConfig(keys_per_node=64, small_messages=False)
    assert np.array_equal(radix_keys(cfg, 1), radix_keys(cfg, 1))
    assert not np.array_equal(radix_keys(cfg, 0), radix_keys(cfg, 1))


def test_radix_passes_cover_32_bits():
    assert RadixConfig(1, True, radix_bits=11).passes == 3
    assert RadixConfig(1, True, radix_bits=8).passes == 4


# ---------------------------------------------------------------- sample


@pytest.mark.parametrize("substrate", ["fe-switch", "atm"])
@pytest.mark.parametrize("small", [True, False])
def test_sample_sorts_correctly(substrate, small):
    cfg = SampleConfig(keys_per_node=300, small_messages=small)
    cl = Cluster(3, substrate=substrate)
    result = run_sample_sort(cl, cfg)
    assert result.elapsed_us > 0


def test_sample_sort_two_nodes_hub():
    cfg = SampleConfig(keys_per_node=128, small_messages=True)
    cl = Cluster(2, substrate="fe-hub")
    run_sample_sort(cl, cfg)


def test_sample_receive_counts_cover_all_keys():
    cfg = SampleConfig(keys_per_node=200, small_messages=False)
    cl = Cluster(4, substrate="fe-switch")
    received = cl.run.__self__  # silence lint; use run below
    counts = run_sample_sort(cl, cfg)
    totals = sum(int(rt.local("ss_count")[0]) for rt in cl.runtimes)
    assert totals == 4 * 200


def test_sort_results_report_breakdown():
    cfg = SampleConfig(keys_per_node=100, small_messages=False)
    cl = Cluster(2, substrate="fe-switch")
    result = run_sample_sort(cl, cfg)
    assert len(result.per_node_cpu_us) == 2
    assert all(c > 0 for c in result.per_node_cpu_us)
    assert all(n > 0 for n in result.per_node_net_us)
