"""NIC-resident collective operations (barrier, broadcast, reduce).

The engine (:mod:`~repro.collectives.engine`) runs a k-ary
combining/dissemination tree (:mod:`~repro.collectives.tree`) in NIC
firmware, with per-edge ACK/retransmit reliability; the adapters
(:mod:`~repro.collectives.adapters`) bind it to the PCA-200's i960
(reserved VCIs) and the DC21140 (reserved U-Net port).  The Split-C
runtime selects between this and its host-coordinated node-0 scheme
with the one-flag ``collectives="nic" | "host"`` ablation.
"""

from .bench import render_collectives_bench, run_collectives_bench
from .adapters import (
    AtmCollectiveAdapter,
    FeCollectiveAdapter,
    wire_atm_collectives,
    wire_fe_collectives,
)
from .engine import (
    REDUCE_DTYPES,
    REDUCE_OPS,
    CollectiveAborted,
    CollectiveConfig,
    CollectiveError,
    NicCollectiveEngine,
)
from .membership import CollectiveGroup
from .tree import GEN_MOD, KAryTree, gen_after, next_gen

__all__ = [
    "KAryTree",
    "GEN_MOD",
    "gen_after",
    "next_gen",
    "CollectiveConfig",
    "CollectiveError",
    "CollectiveAborted",
    "CollectiveGroup",
    "NicCollectiveEngine",
    "REDUCE_OPS",
    "REDUCE_DTYPES",
    "AtmCollectiveAdapter",
    "FeCollectiveAdapter",
    "wire_atm_collectives",
    "wire_fe_collectives",
    "run_collectives_bench",
    "render_collectives_bench",
]
