"""U-Net/OS: the live substrate over real OS transports.

Where :mod:`repro.atm` and :mod:`repro.ethernet` model the paper's two
network interfaces inside the discrete-event simulator, this package
implements the same endpoint/channel/queue architecture over actual
operating-system primitives — AF_UNIX datagram sockets (same-host,
SHM-like) and UDP loopback (cross-process) — with a polling doorbell
loop standing in for the fast trap.  The descriptors, the demux table,
the drop-accounting vocabulary, and the Active Messages wire protocol
are shared with the simulated substrates; only time is real.

Importing this package loads none of it: each export's home submodule
is imported on first use.  The ``live*`` conformance substrates are the
rows of ``repro.networks.LIVE``; ``repro.conformance.checker.runner``
resolves one through :func:`repro.live.conform.live_runner`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".am": ("LiveAm", "LiveRequestContext"),
    ".bench": (
        "bench_bandwidth", "bench_incast", "bench_round_trip", "render_bench",
        "run_bench",
    ),
    ".backend": (
        "DEFAULT_MAX_PDU", "FRAME_HEADER", "FRAME_HEADER_SIZE", "LiveBackend",
        "LiveCluster", "LiveTag", "LiveUserEndpoint",
    ),
    ".bufpool": ("BufferPool", "PooledSlice", "PoolExhausted"),
    ".clock": ("WallClock",),
    ".conform": ("live_runner", "run_live_case"),
    ".doorbell": ("DEFAULT_DOORBELL_MODE", "DOORBELL_MODES", "EventDoorbell"),
    ".mmsg": ("mmsg_available", "mmsg_path"),
    ".transport": (
        "TRANSPORT_KINDS", "LiveTransport", "TransportError",
        "UdpLoopbackTransport", "UnixDgramTransport",
        "available_transport_kinds", "make_transport", "transport_available",
    ),
})
