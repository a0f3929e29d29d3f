"""NIC-resident collective operations (barrier, broadcast, reduce).

The engine (:mod:`~repro.collectives.engine`) runs a k-ary
combining/dissemination tree (:mod:`~repro.collectives.tree`) in NIC
firmware, with per-edge ACK/retransmit reliability; the adapters
(:mod:`~repro.collectives.adapters`) bind it to the PCA-200's i960
(reserved VCIs) and the DC21140 (reserved U-Net port).  The Split-C
runtime selects between this and its host-coordinated node-0 scheme
with the one-flag ``collectives="nic" | "host"`` ablation.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bench": ("render_collectives_bench", "run_collectives_bench"),
    ".adapters": (
        "AtmCollectiveAdapter", "FeCollectiveAdapter", "wire_atm_collectives",
        "wire_fe_collectives",
    ),
    ".engine": (
        "REDUCE_DTYPES", "REDUCE_OPS", "CollectiveAborted", "CollectiveConfig",
        "CollectiveError", "NicCollectiveEngine",
    ),
    ".membership": ("CollectiveGroup",),
    ".tree": ("GEN_MOD", "KAryTree", "gen_after", "next_gen"),
})
