"""Split-C workloads: ``splitc-apps`` (host Active Messages do the work)
and ``clos-collectives`` (fabric and NIC-resident engines do the work).

A ``Cluster`` stops its AM endpoints at the end of ``run``, so every
phase builds a fresh one; building is part of the repetition.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np

from repro.apps import RadixConfig, run_radix_sort
from repro.apps.radix_sort import initial_keys, verify_sorted
from repro.splitc import Cluster

from ..harness import Rep, Spans, Workload
from .simcount import count_sim


def collective_rounds(cluster: Cluster, contributions: List[int],
                      rounds: int) -> Tuple[float, int]:
    """``rounds`` barriers then ``rounds`` all-reduces on every node.

    Returns (simulated microseconds of the 2 x ``rounds`` measured
    rounds, nodes that saw a wrong sum).  One warm-up barrier brings
    lazy channels and collective trees up first.
    """
    expected = sum(contributions)

    def program(runtime):
        values = runtime.heap.allocate("v", 4, np.int64)
        yield from runtime.barrier()
        t0 = runtime.sim.now
        for _ in range(rounds):
            yield from runtime.barrier()
        wrong = 0
        for _ in range(rounds):
            values[:] = contributions[runtime.node]
            yield from runtime.all_reduce("v", op="sum")
            if int(values[0]) != expected:
                wrong = 1
        return runtime.sim.now - t0, wrong

    results = cluster.run(program)
    return results[0][0], sum(wrong for _elapsed, wrong in results)


def seeded_contributions(seed: int, nodes: int) -> List[int]:
    rng = random.Random(seed * 7919 + nodes)
    return [rng.randrange(1, 1 << 20) for _ in range(nodes)]


def _count_cluster(rep: Rep, cluster: Cluster) -> None:
    count_sim(rep, cluster.sim, cluster.hosts, cluster.ams,
              cluster.collective_engines)


class SplitCApps(Workload):
    """Radix sort both ways plus host-mode collectives: window, acks and
    bulk-vs-tiny requests in ``am``, then ``splitc``, do most of the work."""

    name = "splitc-apps"
    op = "one Active Message request sent"

    #: keys per node at scale 1.0 (the 3 x 2048-bucket histogram
    #: all-gather is a fixed cost per sort whatever the key count)
    SMALL_KEYS = 128
    LARGE_KEYS = 1024
    HOST_NODES = 16
    HOST_ROUNDS = 3
    #: ``initial_keys`` seeds numpy with ``seed * 1000 + node``, which must
    #: stay below 2**32: any --seed is folded into this many key sets
    KEY_SEEDS = 4_294_967

    def prepare(self, seed: int, scale: float) -> None:
        self.seed = seed % self.KEY_SEEDS
        self.contributions = seeded_contributions(seed, self.HOST_NODES)
        # warm-up: 16-bucket sorts of 8 keys, one round on 4 nodes
        self.radix_bits, self.host_nodes = 4, 4
        self.small_keys, self.large_keys, self.host_rounds = 8, 8, 1
        self.repetition(Spans())
        self.radix_bits, self.host_nodes = RadixConfig.radix_bits, self.HOST_NODES
        self.small_keys = max(8, round(self.SMALL_KEYS * scale))
        self.large_keys = max(16, round(self.LARGE_KEYS * scale))
        self.host_rounds = max(1, round(self.HOST_ROUNDS * scale))

    def _sort(self, rep: Rep, spans: Spans, figure: str, substrate: str,
              keys: int, small: bool) -> None:
        config = RadixConfig(keys, small, radix_bits=self.radix_bits,
                             seed=self.seed)
        with spans.phase(figure):
            cluster = Cluster(4, substrate=substrate)
            with spans.call("run_radix_sort", keys_per_node=keys):
                result = run_radix_sort(cluster, config)
        everything = np.concatenate(
            [initial_keys(config, node) for node in range(cluster.n)])
        requests = sum(am.requests_sent for am in cluster.ams)
        rep.ops += requests
        rep.attempted += requests
        if not verify_sorted(cluster, expected_multiset=everything):
            rep.failed += requests
        rep.sim_us += result.elapsed_us
        rep.figures[figure] = result.elapsed_s
        _count_cluster(rep, cluster)

    def repetition(self, spans: Spans) -> Rep:
        rep = Rep()
        self._sort(rep, spans, "apps.rsortsm_s", "atm", self.small_keys, True)
        self._sort(rep, spans, "apps.rsortlg_s", "fe-switch", self.large_keys, False)
        with spans.phase("collectives.host16_s"):
            cluster = Cluster(self.host_nodes, substrate="fe-clos")
            with spans.call("Cluster.run", rounds=self.host_rounds):
                elapsed_us, wrong = collective_rounds(
                    cluster, self.contributions[:self.host_nodes],
                    self.host_rounds)
        requests = sum(am.requests_sent for am in cluster.ams)
        rep.ops += requests
        rep.attempted += requests
        if wrong:
            rep.failed += requests
        rep.sim_us += elapsed_us
        rep.figures["collectives.host16_s"] = elapsed_us / 1e6
        _count_cluster(rep, cluster)
        return rep


class ClosCollectives(Workload):
    """128 nodes on both fat trees with NIC-resident barrier and
    all-reduce: ``fabric``, switches, links and ``collectives.engine`` do
    most of the work; the host AM path is nearly idle."""

    name = "clos-collectives"
    op = "one collective round (barrier or all-reduce)"

    NODES = 128
    #: barriers and all-reduces each, per fabric, at scale 1.0
    ROUNDS = 8
    FABRICS = (("atm-clos", "collectives.atm_round_us"),
               ("fe-clos", "collectives.fe_round_us"))

    def prepare(self, seed: int, scale: float) -> None:
        self.contributions = seeded_contributions(seed, self.NODES)
        self.nodes, self.rounds = 16, 1
        self.repetition(Spans())  # warm-up on 16-node trees
        self.nodes = self.NODES
        self.rounds = max(1, round(self.ROUNDS * scale))

    def repetition(self, spans: Spans) -> Rep:
        rep = Rep()
        contributions = self.contributions[:self.nodes]
        for substrate, figure in self.FABRICS:
            with spans.phase(substrate):
                cluster = Cluster(self.nodes, substrate=substrate,
                                  collectives="nic")
                with spans.call("Cluster.run", rounds=self.rounds):
                    elapsed_us, wrong = collective_rounds(
                        cluster, contributions, self.rounds)
            rounds = 2 * self.rounds
            rep.ops += rounds
            rep.attempted += rounds
            if wrong:
                rep.failed += self.rounds
            rep.sim_us += elapsed_us
            rep.figures[figure] = elapsed_us / rounds
            _count_cluster(rep, cluster)
        return rep
