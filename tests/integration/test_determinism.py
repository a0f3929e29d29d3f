"""Determinism: identical configurations produce identical timelines.

The calibration story depends on it — every figure in EXPERIMENTS.md
must regenerate exactly, and seeded randomness (CSMA/CD backoff, fault
injection) must be confined to its named streams.
"""

import pytest

from repro.analysis import measure_bandwidth, measure_rtt, setup_atm, setup_fe_hub
from repro.apps import RadixConfig, run_radix_sort
from repro.sim import Simulator
from repro.splitc import Cluster


def test_rtt_measurements_bitwise_repeatable():
    for factory in (setup_fe_hub, setup_atm):
        first = measure_rtt(factory(), 100)
        second = measure_rtt(factory(), 100)
        assert first == second  # exact float equality, not approx


def test_bandwidth_bitwise_repeatable():
    assert measure_bandwidth(setup_fe_hub(), 777) == measure_bandwidth(setup_fe_hub(), 777)


def test_splitc_run_bitwise_repeatable():
    def run():
        cluster = Cluster(3, substrate="atm")
        result = run_radix_sort(cluster, RadixConfig(keys_per_node=300, small_messages=False))
        return result.elapsed_us, cluster.sim.events_processed

    assert run() == run()


def test_event_counts_identical_across_runs():
    def run():
        sim = Simulator()
        from repro.ethernet import HubNetwork
        from repro.hw import PENTIUM_120

        net = HubNetwork(sim)
        h1 = net.add_host("h1", PENTIUM_120)
        h2 = net.add_host("h2", PENTIUM_120)
        ep1 = h1.create_endpoint(rx_buffers=8)
        ep2 = h2.create_endpoint(rx_buffers=8)
        ch1, ch2 = net.connect(ep1, ep2)

        def tx():
            for i in range(6):
                yield from ep1.send(ch1, bytes([i]) * 120)

        def rx():
            for _ in range(6):
                yield from ep2.recv()

        sim.process(tx())
        sim.run_until_complete(sim.process(rx()))
        sim.run()
        return sim.now, sim.events_processed

    assert run() == run()


def test_contended_hub_with_same_seed_repeats():
    """Even collision resolution (randomized backoff) is reproducible."""

    def run():
        sim = Simulator()
        from repro.ethernet import HubNetwork
        from repro.hw import PENTIUM_120

        net = HubNetwork(sim)
        hosts = [net.add_host(f"h{i}", PENTIUM_120) for i in range(3)]
        eps = [h.create_endpoint(rx_buffers=8) for h in hosts]
        ch01, ch10 = net.connect(eps[0], eps[1])
        ch12, ch21 = net.connect(eps[1], eps[2])

        def tx(ep, ch):
            def proc():
                for _ in range(4):
                    yield from ep.send(ch, b"c" * 400)

            return proc

        sim.process(tx(eps[0], ch01)())
        sim.process(tx(eps[1], ch12)())
        sim.run()
        return sim.now, net.medium.collisions

    first = run()
    assert first[1] > 0  # the backoff RNG really was drawn
    assert run() == first
