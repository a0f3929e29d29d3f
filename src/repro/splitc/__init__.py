"""Split-C runtime over Active Messages, plus cluster construction."""

from ..networks import atm_cluster_cpus, fe_cluster_cpus
from .cluster import ENDPOINT_CONFIG, Cluster
from .costs import DEFAULT_COSTS, KernelCosts
from .memory import GlobalHeap, HeapError
from .runtime import SplitCError, SplitCRuntime

__all__ = [
    "Cluster",
    "fe_cluster_cpus",
    "atm_cluster_cpus",
    "ENDPOINT_CONFIG",
    "SplitCRuntime",
    "SplitCError",
    "GlobalHeap",
    "HeapError",
    "KernelCosts",
    "DEFAULT_COSTS",
]
