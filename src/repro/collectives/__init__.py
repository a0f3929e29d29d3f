"""NIC-resident collective operations (barrier, broadcast, reduce).

The engine (:mod:`~repro.collectives.engine`) runs a k-ary
combining/dissemination tree (:mod:`~repro.collectives.tree`) in NIC
firmware, with per-edge ACK/retransmit reliability; one adapter
(:mod:`~repro.collectives.adapters`) binds it to whatever a substrate's
``collective_edge`` sets up — reserved VCIs on the PCA-200's i960, the
reserved U-Net port on the DC21140.  The Split-C
runtime selects between this and its host-coordinated node-0 scheme
with the one-flag ``collectives="nic" | "host"`` ablation.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bench": ("render_collectives_bench", "run_collectives_bench"),
    ".adapters": ("CollectiveAdapter", "wire_collectives"),
    ".engine": (
        "REDUCE_DTYPES", "REDUCE_OPS", "RTO_US", "CollectiveAborted",
        "CollectiveError", "NicCollectiveEngine",
    ),
    ".membership": ("CollectiveGroup",),
    ".tree": ("GEN_MOD", "KAryTree", "gen_after", "next_gen"),
})
