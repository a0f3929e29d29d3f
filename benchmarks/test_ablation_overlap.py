"""Ablation: overlapping communication with computation (Section 4.4.3).

"The U-Net/FE architecture, while simple, sacrifices overlap of
communication and computation for lower message latencies...  The
U-Net/ATM architecture is suitable for applications which pipeline many
message transmissions and synchronize rarely."  We run the blocked
matrix multiply with and without split-phase block prefetching on both
clusters and measure how much of the fetch latency overlap hides.
"""

import pytest

from repro.analysis import format_table
from repro.apps import MatmulConfig, run_matmul
from repro.splitc import Cluster

BLOCKS = 4
BLOCK_SIZE = 16  # 2 KB blocks: fetch time comparable to compute time
NODES = 4


def _run(substrate: str, prefetch: bool):
    cfg = MatmulConfig(blocks=BLOCKS, block_size=BLOCK_SIZE, prefetch=prefetch)
    # run_matmul raises WrongResult if overlap broke the math
    return run_matmul(Cluster(NODES, substrate=substrate), cfg).elapsed_us


def test_ablation_overlap(benchmark, emit):
    def run():
        return {
            (sub, prefetch): _run(sub, prefetch)
            for sub in ("fe-switch", "atm")
            for prefetch in (False, True)
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for sub in ("fe-switch", "atm"):
        blocking = results[(sub, False)] / 1000
        overlapped = results[(sub, True)] / 1000
        saved = (1 - overlapped / blocking) * 100
        rows.append((sub, blocking, overlapped, f"{saved:.0f}%"))
    emit(format_table(
        ("cluster", "blocking (ms)", "prefetch (ms)", "hidden"),
        rows,
        title=f"Ablation - split-phase prefetch, {BLOCKS}x{BLOCKS} blocks of "
              f"{BLOCK_SIZE}x{BLOCK_SIZE} doubles on {NODES} nodes",
    ))
    # prefetching hides a solid fraction of fetch latency on both
    for sub in ("fe-switch", "atm"):
        assert results[(sub, True)] < 0.85 * results[(sub, False)]
    # and the co-processor architecture profits at least as much as the
    # kernel-path architecture (its fetches are costlier to begin with)
    atm_saved = 1 - results[("atm", True)] / results[("atm", False)]
    fe_saved = 1 - results[("fe-switch", True)] / results[("fe-switch", False)]
    assert atm_saved > 0.8 * fe_saved
