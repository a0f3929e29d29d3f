"""Blocked matrix multiply (the paper's ``mm`` benchmark).

"The main loop in the matrix multiply algorithm repeatedly fetches a
block from each of the two matrices to be multiplied, performs the
multiplication, and stores the result locally" (Section 5.1).  The
paper runs two configurations: 8x8 blocks of 128x128 doubles and 16x16
blocks of 16x16 doubles.

Blocks of A, B and C are distributed round-robin over the nodes by
block index; each node computes its C blocks, bulk-fetching the A and B
blocks it needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..splitc.cluster import Cluster
from ..splitc.runtime import SplitCRuntime
from .runner import AppResult, run_checked

__all__ = ["MatmulConfig", "run_matmul", "PAPER_MM_128", "PAPER_MM_16"]


@dataclass(frozen=True)
class MatmulConfig:
    """One matmul problem instance.

    With ``prefetch`` the program issues the next step's block fetches
    split-phase while multiplying the current blocks — the overlap of
    communication and computation that Section 4.4.3 says U-Net/ATM's
    co-processor architecture is built for.
    """

    blocks: int  # blocks per side
    block_size: int  # elements per block side
    prefetch: bool = False

    @property
    def n(self) -> int:
        return self.blocks * self.block_size

    def owner(self, bi: int, bj: int, nprocs: int) -> int:
        return (bi * self.blocks + bj) % nprocs

    def slot(self, bi: int, bj: int, nprocs: int) -> int:
        return (bi * self.blocks + bj) // nprocs

    def blocks_owned(self, node: int, nprocs: int) -> int:
        total = self.blocks * self.blocks
        return (total - node + nprocs - 1) // nprocs


#: the paper's two configurations
PAPER_MM_128 = MatmulConfig(blocks=8, block_size=128)
PAPER_MM_16 = MatmulConfig(blocks=16, block_size=16)


def _block_of(matrix: np.ndarray, cfg: MatmulConfig, bi: int, bj: int) -> np.ndarray:
    b = cfg.block_size
    return matrix[bi * b : (bi + 1) * b, bj * b : (bj + 1) * b]


def reference_matrices(cfg: MatmulConfig):
    """The deterministic full A and B used across all nodes."""
    rng = np.random.RandomState(1)
    a = rng.rand(cfg.n, cfg.n)
    b = rng.rand(cfg.n, cfg.n)
    return a, b


def matmul_program(cfg: MatmulConfig):
    """SPMD program factory for one matmul run."""
    a_full, b_full = reference_matrices(cfg)
    bsz = cfg.block_size
    elems = bsz * bsz

    def program(rt: SplitCRuntime):
        n = rt.nprocs
        owned = cfg.blocks_owned(rt.node, n)
        a_loc = rt.all_spread_malloc("mm_a", max(1, owned) * elems, np.float64)
        b_loc = rt.all_spread_malloc("mm_b", max(1, owned) * elems, np.float64)
        c_loc = rt.all_spread_malloc("mm_c", max(1, owned) * elems, np.float64)
        # two scratch pairs: the prefetch variant double-buffers fetches
        scratch_a = [rt.all_spread_malloc("mm_sa0", elems, np.float64),
                     rt.all_spread_malloc("mm_sa1", elems, np.float64)]
        scratch_b = [rt.all_spread_malloc("mm_sb0", elems, np.float64),
                     rt.all_spread_malloc("mm_sb1", elems, np.float64)]
        # distribute the input blocks (free: initial data placement)
        for bi in range(cfg.blocks):
            for bj in range(cfg.blocks):
                if cfg.owner(bi, bj, n) == rt.node:
                    slot = cfg.slot(bi, bj, n)
                    a_loc[slot * elems : (slot + 1) * elems] = _block_of(a_full, cfg, bi, bj).ravel()
                    b_loc[slot * elems : (slot + 1) * elems] = _block_of(b_full, cfg, bi, bj).ravel()
        yield from rt.barrier()
        def start_fetch(bi, bj, k, parity):
            owner_a = cfg.owner(bi, k, n)
            owner_b = cfg.owner(k, bj, n)
            pa = rt.bulk_get_async(owner_a, "mm_a", cfg.slot(bi, k, n) * elems, elems,
                                   f"mm_sa{parity}", 0)
            pb = rt.bulk_get_async(owner_b, "mm_b", cfg.slot(k, bj, n) * elems, elems,
                                   f"mm_sb{parity}", 0)
            return pa, pb

        for bi in range(cfg.blocks):
            for bj in range(cfg.blocks):
                if cfg.owner(bi, bj, n) != rt.node:
                    continue
                slot = cfg.slot(bi, bj, n)
                acc = np.zeros((bsz, bsz))
                if cfg.prefetch:
                    pending = start_fetch(bi, bj, 0, 0)
                    for k in range(cfg.blocks):
                        parity = k % 2
                        yield pending[0]
                        yield pending[1]
                        if k + 1 < cfg.blocks:
                            # split-phase: fetch the next blocks while we
                            # multiply the current ones
                            pending = start_fetch(bi, bj, k + 1, (k + 1) % 2)
                        yield from rt.compute(flops=rt.costs.matmul_flops(bsz, bsz, bsz))
                        acc += (scratch_a[parity].reshape(bsz, bsz)
                                @ scratch_b[parity].reshape(bsz, bsz))
                else:
                    for k in range(cfg.blocks):
                        owner_a = cfg.owner(bi, k, n)
                        owner_b = cfg.owner(k, bj, n)
                        yield from rt.bulk_get(owner_a, "mm_a", cfg.slot(bi, k, n) * elems,
                                               elems, "mm_sa0", 0)
                        yield from rt.bulk_get(owner_b, "mm_b", cfg.slot(k, bj, n) * elems,
                                               elems, "mm_sb0", 0)
                        yield from rt.compute(flops=rt.costs.matmul_flops(bsz, bsz, bsz))
                        acc += scratch_a[0].reshape(bsz, bsz) @ scratch_b[0].reshape(bsz, bsz)
                c_loc[slot * elems : (slot + 1) * elems] = acc.ravel()
        yield from rt.barrier()
        return rt.node

    return program


def run_matmul(cluster: Cluster, cfg: MatmulConfig) -> AppResult:
    return run_checked(cluster, matmul_program(cfg),
                       lambda cluster: _verify_matmul(cluster, cfg),
                       "the product of the reference matrices")


def _verify_matmul(cluster: Cluster, cfg: MatmulConfig) -> bool:
    """Check every C block against the numpy reference product."""
    a_full, b_full = reference_matrices(cfg)
    c_ref = a_full @ b_full
    elems = cfg.block_size * cfg.block_size
    for bi in range(cfg.blocks):
        for bj in range(cfg.blocks):
            owner = cfg.owner(bi, bj, cluster.n)
            slot = cfg.slot(bi, bj, cluster.n)
            c_loc = cluster.runtimes[owner].local("mm_c")
            got = c_loc[slot * elems : (slot + 1) * elems].reshape(cfg.block_size, cfg.block_size)
            if not np.allclose(got, _block_of(c_ref, cfg, bi, bj)):
                return False
    return True
