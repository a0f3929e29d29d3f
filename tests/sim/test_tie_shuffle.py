"""The tie-independent figures stay put when same-instant ties are shuffled.

Every entry the kernel pushes carries a ``_seq`` tie key, so entries due
at one instant run in insertion order.  ``tests/tie_shuffle.py`` swaps
that key for a seeded random draw.  A two-host figure has no contention
point where the order of two same-instant entries changes a delivery
time, so each one below must come out identical under every shuffle:
the Figure 5 round trips, the Figure 6 streams at 1 498 B, the Figure 3
and Figure 4 step records and the pinned ATM uplink depth.

A multi-host FE figure is not in that class: two frames reaching one
switch egress at one instant are served in whichever order the heap
hands them over.  The 16-node ``fe-clos`` NIC barrier is the witness
that the shuffle takes effect at all.
"""

import functools

import pytest

from repro.analysis.microbench import (
    FIGURE5_CONFIGS,
    FIGURE6_CONFIGS,
    bandwidth_of,
    rtt_of,
)
from repro.analysis.timelines import figure3_timeline, figure4_timeline
from repro.splitc import Cluster
from tests.atm import test_uplink_depth as uplink
from tests.tie_shuffle import tie_shuffle

#: None is the committed order; the rest are shuffles
SEEDS = (None, 1, 2, 3)


@functools.lru_cache(maxsize=None)
def _figures(seed):
    """Every tie-independent figure, by name, under shuffle ``seed``."""
    with tie_shuffle(seed):
        figures = {f"fig5/{config}/{size}B": rtt_of(config, size)
                   for config in FIGURE5_CONFIGS for size in (0, 40, 1498)}
        figures.update({f"fig6/{config}/1498B": bandwidth_of(config, 1498)
                        for config in FIGURE6_CONFIGS})
        figures["fig3"] = figure3_timeline().records
        figures["fig4/100B"] = figure4_timeline(100).records
    return figures


def _five_nic_barriers(seed) -> float:
    with tie_shuffle(seed):
        cluster = Cluster(16, substrate="fe-clos", collectives="nic")

        def program(runtime):
            for _ in range(5):
                yield from runtime.barrier()

        cluster.run(program)  # ends closed; the clock stays readable
    return cluster.sim.now


@pytest.mark.parametrize("seed", SEEDS)
def test_tie_independent_figures_do_not_move(seed):
    assert _figures(seed) == _figures(None)
    with tie_shuffle(seed):
        uplink.test_uplink_depth_at_the_last_send_completion()


def test_the_shuffle_moves_a_contended_fabric():
    committed = _five_nic_barriers(None)
    assert round(committed, 2) == 935.38
    assert any(_five_nic_barriers(seed) != committed for seed in SEEDS[1:])
