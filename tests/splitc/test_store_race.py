"""The store-race check (``tests/store_race.py``) on a planted race and
on the benchmark suite.

The plant is the radix sort's old bug: zeroing the gather array after a
fence and before ``all_gather``.  A peer that leaves the fence first
stores its slice before the local node zeroes the array, and the zeroing
wipes it.
"""

import numpy as np
import pytest

from repro.apps import (
    MatmulConfig,
    RadixConfig,
    SampleConfig,
    run_matmul,
    run_radix_sort,
    run_sample_sort,
)
from repro.splitc import Cluster
from tests.store_race import StoreRace, store_race_check
from tests.tie_shuffle import tie_shuffle

WIDTH = 4


def gather_program(zero_first: bool):
    """Three gathers; node 0 works after each fence, so its peer's slice
    lands before node 0 reaches ``all_gather``."""

    def program(rt):
        gathered = rt.all_spread_malloc("g", WIDTH * rt.nprocs, np.uint64)
        for _ in range(3):
            yield from rt.barrier()
            yield from rt.compute(us=500.0 if rt.node == 0 else 0.0)
            if zero_first:
                gathered[:] = 0  # the planted race
            yield from rt.all_gather("g", np.full(WIDTH, rt.node + 1, np.uint64))
        return int(gathered.sum())

    return program


def test_the_planted_zeroing_loses_a_slice():
    """Without the check the plant is a silent wrong answer on node 0."""
    sums = Cluster(2).run(gather_program(zero_first=True))
    assert sums[1] == WIDTH * (1 + 2)
    assert sums[0] == WIDTH * 1


def test_the_check_flags_the_planted_zeroing():
    cluster = Cluster(2)
    with store_race_check(cluster), pytest.raises(StoreRace, match="node 0: 'g'"):
        cluster.run(gather_program(zero_first=True))


def test_the_check_passes_the_gather_without_the_zeroing():
    cluster = Cluster(2)
    with store_race_check(cluster) as nodes:
        sums = cluster.run(gather_program(zero_first=False))
    assert sums == [WIDTH * (1 + 2)] * 2
    # three gathers, each fencing one peer slice of 4 x 8 bytes per node
    assert [node.checked for node in nodes] == [3 * WIDTH * 8] * 2


RUNS = {
    "rsortsm": lambda cl: run_radix_sort(cl, RadixConfig(96, True, radix_bits=8)),
    "rsortlg": lambda cl: run_radix_sort(cl, RadixConfig(96, False, radix_bits=8)),
    "ssortsm": lambda cl: run_sample_sort(cl, SampleConfig(96, True)),
    "ssortlg": lambda cl: run_sample_sort(cl, SampleConfig(96, False)),
    "mm": lambda cl: run_matmul(cl, MatmulConfig(blocks=3, block_size=4)),
    "mm-prefetch": lambda cl: run_matmul(cl, MatmulConfig(3, 4, prefetch=True)),
}


@pytest.mark.parametrize("seed", [None, 1])
@pytest.mark.parametrize("substrate", ["fe-switch", "atm"])
@pytest.mark.parametrize("app", sorted(RUNS))
def test_the_benchmarks_race_no_store(app, substrate, seed):
    cluster = Cluster(3, substrate=substrate)
    with tie_shuffle(seed), store_race_check(cluster) as nodes:
        RUNS[app](cluster)
    assert sum(node.checked for node in nodes) > 0


def test_the_check_watches_an_all_reduce():
    """Host all-reduce stores and combines into node 0, then spreads the
    result back: every byte it records is fenced, none is lost."""
    cluster = Cluster(4)

    def program(rt):
        values = rt.all_spread_malloc("v", 2, np.int64)
        for round_ in range(2):
            values[:] = rt.node + round_
            yield from rt.all_reduce("v")
        return int(values[0])

    with store_race_check(cluster) as nodes:
        assert cluster.run(program) == [(0 + 1 + 2 + 3) + 4 * 1] * 4
    assert all(node.checked for node in nodes)
