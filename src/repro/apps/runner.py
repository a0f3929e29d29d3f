"""The one way a benchmark runs: run it, check the answer it left in the
Split-C heap, and only then return its time."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..splitc.cluster import Cluster
from ..splitc.runtime import SplitCError

__all__ = ["AppResult", "WrongResult", "run_checked", "sorted_permutation"]


class WrongResult(SplitCError):
    """A benchmark ran to the end and left a wrong answer in the heap."""


@dataclass(frozen=True)
class AppResult:
    """Simulated time of one checked run, and each node's cpu/net split."""

    elapsed_us: float
    per_node_cpu_us: List[float]
    per_node_net_us: List[float]

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_us / 1e6


def run_checked(cluster: Cluster, program, check, answer: str) -> AppResult:
    """Run ``program`` on ``cluster``; raise :class:`WrongResult` unless
    ``check(cluster)`` finds ``answer`` in the heap the run left."""
    start = cluster.sim.now
    cluster.run(program)
    if not check(cluster):
        raise WrongResult(
            f"{cluster.n}-node {cluster.substrate}: the heap does not hold {answer}")
    breakdown = cluster.time_breakdown()
    return AppResult(
        elapsed_us=cluster.sim.now - start,
        per_node_cpu_us=[b["cpu_us"] for b in breakdown],
        per_node_net_us=[b["net_us"] for b in breakdown],
    )


def sorted_permutation(merged: np.ndarray, keys) -> bool:
    """``merged`` is in order and, unless ``keys`` is None, holds ``keys``."""
    if np.any(np.diff(merged.astype(np.int64)) < 0):
        return False
    return keys is None or np.array_equal(np.sort(merged), np.sort(keys))
