"""Sensitivity analysis of the Table-1 orderings.

The FE-vs-ATM winner on the large-message sorts depends on machine
constants the paper does not let us calibrate exactly — chiefly the
SPARC-to-Pentium integer-op ratio (see the deviation note in
EXPERIMENTS.md).  This module quantifies that: for a benchmark it finds
the multiplier on the SPARC cluster's integer rate at which the two
clusters' projected times cross, i.e. how far our cost model is from
flipping the ordering.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

from ..hw.cpu import PENTIUM_120, SPARCSTATION_20, CpuModel
from ..networks import atm_cluster_cpus, fe_cluster_cpus
from ..splitc.costs import DEFAULT_COSTS, KernelCosts
from .analytic import Projection
from .loggp import StageCosts, atm_stage_costs, fe_stage_costs

__all__ = ["scaled_int_cpus", "projection_gap", "int_ratio_flip_point"]


def scaled_int_cpus(cpus: Sequence[CpuModel], factor: float) -> list:
    """The same machines with integer throughput scaled by ``factor``."""
    return [
        replace(cpu, name=f"{cpu.name} int x{factor:g}", int_ops_per_us=cpu.int_ops_per_us * factor)
        for cpu in cpus
    ]


def projection_gap(
    project: Callable[..., Projection],
    cfg,
    n: int,
    atm_int_factor: float = 1.0,
    kernel: KernelCosts = DEFAULT_COSTS,
) -> float:
    """FE minus ATM projected seconds (positive: ATM wins)."""
    fe = project(cfg, n, fe_stage_costs(PENTIUM_120), fe_cluster_cpus(n), kernel=kernel)
    atm_cpus = scaled_int_cpus(atm_cluster_cpus(n), atm_int_factor)
    atm = project(cfg, n, atm_stage_costs(SPARCSTATION_20), atm_cpus, kernel=kernel)
    return fe.total_s - atm.total_s


def int_ratio_flip_point(
    project: Callable[..., Projection],
    cfg,
    n: int,
    lo: float = 0.5,
    hi: float = 2.0,
    iterations: int = 40,
) -> float:
    """The SPARC integer-rate multiplier at which FE and ATM tie.

    Returns the factor f such that scaling every SPARC node's integer
    throughput by f makes the two clusters' projected times equal;
    > 1 means our model currently favours FE, < 1 means it favours ATM.
    Returns ``float('inf')`` / ``float('-inf')`` if no crossing exists
    in [lo, hi].
    """
    gap_lo = projection_gap(project, cfg, n, lo)
    gap_hi = projection_gap(project, cfg, n, hi)
    if gap_lo > 0 and gap_hi > 0:
        return float("-inf")  # ATM wins across the whole range
    if gap_lo < 0 and gap_hi < 0:
        return float("inf")  # FE wins across the whole range
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if projection_gap(project, cfg, n, mid) < 0:
            # FE ahead: SPARC needs to be faster
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
