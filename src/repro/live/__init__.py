"""U-Net/OS: the live substrate over real OS transports.

Where :mod:`repro.atm` and :mod:`repro.ethernet` model the paper's two
network interfaces inside the discrete-event simulator, this package
implements the same endpoint/channel/queue architecture over actual
operating-system primitives — AF_UNIX datagram sockets (same-host,
SHM-like) and UDP loopback (cross-process) — with a polling doorbell
loop standing in for the fast trap.  The descriptors, the demux table,
the drop-accounting vocabulary, and the Active Messages wire protocol
are shared with the simulated substrates; only time is real.

Importing this package registers the ``live``/``live-unix``/``live-udp``
substrates with :mod:`repro.core.substrates` so the conformance checker
and CLI can name them without special-casing.
"""

from .am import LiveAm, LiveRequestContext
from .bench import (
    bench_bandwidth,
    bench_incast,
    bench_round_trip,
    render_bench,
    run_bench,
)
from .backend import (
    DEFAULT_MAX_PDU,
    FRAME_HEADER,
    FRAME_HEADER_SIZE,
    LiveBackend,
    LiveCluster,
    LiveTag,
    LiveUserEndpoint,
)
from .bufpool import BufferPool, PooledSlice, PoolExhausted
from .clock import WallClock
from .conform import register_live_substrates, run_live_case
from .doorbell import DEFAULT_DOORBELL_MODE, DOORBELL_MODES, EventDoorbell
from .mmsg import mmsg_available, mmsg_path
from .transport import (
    TRANSPORT_KINDS,
    LiveTransport,
    TransportError,
    UdpLoopbackTransport,
    UnixDgramTransport,
    available_transport_kinds,
    make_transport,
    transport_available,
)

__all__ = [
    "LiveAm",
    "LiveRequestContext",
    "LiveBackend",
    "LiveCluster",
    "LiveTag",
    "LiveUserEndpoint",
    "WallClock",
    "LiveTransport",
    "UnixDgramTransport",
    "UdpLoopbackTransport",
    "TransportError",
    "TRANSPORT_KINDS",
    "transport_available",
    "available_transport_kinds",
    "make_transport",
    "run_live_case",
    "register_live_substrates",
    "FRAME_HEADER",
    "FRAME_HEADER_SIZE",
    "DEFAULT_MAX_PDU",
    "BufferPool",
    "PooledSlice",
    "PoolExhausted",
    "DOORBELL_MODES",
    "DEFAULT_DOORBELL_MODE",
    "EventDoorbell",
    "mmsg_available",
    "mmsg_path",
    "bench_round_trip",
    "bench_bandwidth",
    "bench_incast",
    "run_bench",
    "render_bench",
]

register_live_substrates()
