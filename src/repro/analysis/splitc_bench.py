"""Split-C application results: Table 1, Table 2, and Figure 7.

Full-scale numbers (512K keys/node, 1024x1024 / 256x256 matrices) come
from the analytic projections (see ``repro.perfmodel``); the same
functions also run the real DES benchmarks at reduced scale for
validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..apps import PAPER_MM_128, PAPER_MM_16, MatmulConfig, RadixConfig, SampleConfig
from ..hw.cpu import PENTIUM_120, SPARCSTATION_20
from ..perfmodel import (
    Projection,
    atm_stage_costs,
    fe_stage_costs,
    project_matmul,
    project_radix,
    project_sample,
)
from ..networks import ATM, FE

__all__ = [
    "BENCHMARKS",
    "PAPER_KEYS_PER_NODE",
    "table1",
    "table1_des",
    "table2",
    "figure7",
    "Table1Entry",
]

PAPER_KEYS_PER_NODE = 512 * 1024
NODE_COUNTS = (2, 4, 8)

#: benchmark order as printed in the paper's tables
BENCHMARKS = ("mm 128x128", "mm 16x16", "ssortsm512K", "ssortlg512K", "rsortsm512K", "rsortlg512K")


@dataclass
class Table1Entry:
    benchmark: str
    nodes: int
    substrate: str  # "FE" or "ATM"
    seconds: float
    cpu_seconds: float
    net_seconds: float


#: the two Section-5 clusters: stage-cost model, its reference machine, NI
_CLUSTERS = {"FE": (fe_stage_costs, PENTIUM_120, FE),
             "ATM": (atm_stage_costs, SPARCSTATION_20, ATM)}


def _project(benchmark: str, n: int, substrate: str, keys: int) -> Projection:
    stage_costs, reference, ni = _CLUSTERS[substrate]
    costs, cpus = stage_costs(reference), ni.cpus(n)
    if benchmark == "mm 128x128":
        return project_matmul(PAPER_MM_128, n, costs, cpus, substrate=substrate)
    if benchmark == "mm 16x16":
        return project_matmul(PAPER_MM_16, n, costs, cpus, substrate=substrate)
    if benchmark == "ssortsm512K":
        return project_sample(SampleConfig(keys, True), n, costs, cpus, substrate=substrate)
    if benchmark == "ssortlg512K":
        return project_sample(SampleConfig(keys, False), n, costs, cpus, substrate=substrate)
    if benchmark == "rsortsm512K":
        return project_radix(RadixConfig(keys, True), n, costs, cpus, substrate=substrate)
    if benchmark == "rsortlg512K":
        return project_radix(RadixConfig(keys, False), n, costs, cpus, substrate=substrate)
    raise ValueError(f"unknown benchmark {benchmark!r}")


def table1(keys_per_node: int = PAPER_KEYS_PER_NODE) -> List[Table1Entry]:
    """Execution times for the 6 benchmarks x {2,4,8} nodes x {FE, ATM}."""
    entries = []
    for benchmark in BENCHMARKS:
        for n in NODE_COUNTS:
            for substrate in ("FE", "ATM"):
                projection = _project(benchmark, n, substrate, keys_per_node)
                entries.append(
                    Table1Entry(
                        benchmark=benchmark,
                        nodes=n,
                        substrate=substrate,
                        seconds=projection.total_s,
                        cpu_seconds=projection.cpu_us / 1e6,
                        net_seconds=projection.net_us / 1e6,
                    )
                )
    return entries


def table1_des(keys_per_node: int = 2048) -> List[Table1Entry]:
    """Table 1 measured in the event-level simulator at reduced scale.

    Complements the analytic full-scale :func:`table1`: same benchmarks,
    same clusters, every message simulated, on 2 and 4 nodes.  Key counts
    and the matrix size (4 x 4 blocks of 16) are scaled down to keep
    pure-Python event processing tractable (see DESIGN.md); use it to
    sanity-check orderings, not absolutes.
    """
    from ..apps import run_matmul, run_radix_sort, run_sample_sort
    from ..splitc import Cluster

    runners = [
        ("mm 64^2 (scaled)",
         lambda cl: run_matmul(cl, MatmulConfig(blocks=4, block_size=16))),
        (f"ssortsm{keys_per_node}",
         lambda cl: run_sample_sort(cl, SampleConfig(keys_per_node, True))),
        (f"ssortlg{keys_per_node}",
         lambda cl: run_sample_sort(cl, SampleConfig(keys_per_node, False))),
        (f"rsortsm{keys_per_node}",
         lambda cl: run_radix_sort(cl, RadixConfig(keys_per_node, True))),
        (f"rsortlg{keys_per_node}",
         lambda cl: run_radix_sort(cl, RadixConfig(keys_per_node, False))),
    ]
    entries = []
    for name, runner in runners:
        for n in (2, 4):
            for substrate, label in (("fe-switch", "FE"), ("atm", "ATM")):
                cluster = Cluster(n, substrate=substrate)
                result = runner(cluster)
                breakdown = cluster.time_breakdown()
                entries.append(Table1Entry(
                    benchmark=name,
                    nodes=n,
                    substrate=label,
                    seconds=result.elapsed_us / 1e6,
                    cpu_seconds=sum(b["cpu_us"] for b in breakdown) / n / 1e6,
                    net_seconds=sum(b["net_us"] for b in breakdown) / n / 1e6,
                ))
    return entries


def table2(entries: Optional[List[Table1Entry]] = None) -> List[Tuple[str, float, float]]:
    """Speedups from 2 to 8 nodes for both clusters (Table 2).

    The matrix multiplies keep total problem size constant (speedup =
    T2/T8); the sorts keep keys *per processor* constant, so the scaled
    speedup is 4 x T2/T8.
    """
    entries = entries if entries is not None else table1()
    index: Dict[Tuple[str, int, str], float] = {
        (e.benchmark, e.nodes, e.substrate): e.seconds for e in entries
    }
    rows = []
    for benchmark in BENCHMARKS:
        scale = 1.0 if benchmark.startswith("mm") else 4.0
        atm_speedup = scale * index[(benchmark, 2, "ATM")] / index[(benchmark, 8, "ATM")]
        fe_speedup = scale * index[(benchmark, 2, "FE")] / index[(benchmark, 8, "FE")]
        rows.append((benchmark, atm_speedup, fe_speedup))
    return rows


def figure7(entries: Optional[List[Table1Entry]] = None) -> List[dict]:
    """Relative execution times with the cpu/net split (Figure 7).

    Times are normalized to the 2-node ATM cluster for each benchmark.
    """
    entries = entries if entries is not None else table1()
    index: Dict[Tuple[str, int, str], Table1Entry] = {
        (e.benchmark, e.nodes, e.substrate): e for e in entries
    }
    bars = []
    for benchmark in BENCHMARKS:
        reference = index[(benchmark, 2, "ATM")].seconds
        for substrate in ("ATM", "FE"):
            for n in NODE_COUNTS:
                entry = index[(benchmark, n, substrate)]
                bars.append(
                    {
                        "benchmark": benchmark,
                        "substrate": substrate,
                        "nodes": n,
                        "relative_total": entry.seconds / reference,
                        "relative_cpu": entry.cpu_seconds / reference,
                        "relative_net": entry.net_seconds / reference,
                    }
                )
    return bars
