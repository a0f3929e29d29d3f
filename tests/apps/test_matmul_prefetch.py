"""Tests for the split-phase prefetching matmul variant (Section 4.4.3)."""

import pytest

from repro.apps import MatmulConfig, run_matmul
from repro.splitc import Cluster


@pytest.mark.parametrize("substrate", ["fe-switch", "atm"])
def test_prefetch_produces_correct_product(substrate):
    cfg = MatmulConfig(blocks=4, block_size=8, prefetch=True)
    cluster = Cluster(3, substrate=substrate)
    run_matmul(cluster, cfg)  # raises WrongResult on a wrong product


def test_prefetch_is_faster_than_blocking():
    base = MatmulConfig(blocks=4, block_size=16, prefetch=False)
    pre = MatmulConfig(blocks=4, block_size=16, prefetch=True)
    t_base = run_matmul(Cluster(4, substrate="atm"), base).elapsed_us
    t_pre = run_matmul(Cluster(4, substrate="atm"), pre).elapsed_us
    assert t_pre < t_base


def test_prefetch_single_node():
    cfg = MatmulConfig(blocks=2, block_size=4, prefetch=True)
    cluster = Cluster(1, substrate="fe-switch")
    run_matmul(cluster, cfg)  # raises WrongResult on a wrong product


def test_prefetch_same_result_as_blocking():
    import numpy as np

    results = {}
    for prefetch in (False, True):
        cfg = MatmulConfig(blocks=3, block_size=4, prefetch=prefetch)
        cluster = Cluster(2, substrate="fe-switch")
        run_matmul(cluster, cfg)
        pieces = [rt.local("mm_c").copy() for rt in cluster.runtimes]
        results[prefetch] = np.concatenate(pieces)
    assert np.allclose(results[False], results[True])


def test_concurrent_sends_stay_in_order():
    """The AM per-peer tx lock: interleaved small and large sends from
    concurrent processes must not reorder (reordering trips go-back-N
    and costs a retransmission timeout)."""
    from repro.am import AmEndpoint
    from repro.core import EndpointConfig
    from repro.ethernet import SwitchedNetwork
    from repro.hw import PENTIUM_120
    from repro.sim import Simulator

    sim = Simulator()
    net = SwitchedNetwork(sim)
    h0 = net.add_host("n0", PENTIUM_120)
    h1 = net.add_host("n1", PENTIUM_120)
    config = EndpointConfig(num_buffers=256, buffer_size=2048, recv_queue_depth=256)
    ep0 = h0.create_endpoint(config=config, rx_buffers=64)
    ep1 = h1.create_endpoint(config=config, rx_buffers=64)
    ch0, ch1 = net.connect(ep0, ep1)
    am0, am1 = AmEndpoint(0, ep0), AmEndpoint(1, ep1)
    am0.connect_peer(1, ch0)
    am1.connect_peer(0, ch1)
    seen = []
    am1.register_handler(1, lambda ctx: seen.append(ctx.args[0]))

    def small_sender():
        for i in range(10):
            yield from am0.request(1, 1, args=(100 + i,))
            yield sim.timeout(3.0)

    def large_sender():
        for i in range(10):
            yield from am0.request(1, 1, args=(200 + i,), data=b"L" * 1400)
            yield sim.timeout(1.0)

    sim.process(small_sender())
    sim.process(large_sender())
    sim.run()
    assert len(seen) == 20
    # no retransmissions were needed: nothing ever arrived out of order
    assert am0._peers_by_node[1].retransmissions == 0
    assert am1._peers_by_node[0].duplicates == 0
