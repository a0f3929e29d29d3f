"""Real OS datagram transports under the live U-Net/OS substrate.

Two backends, mirroring the paper's two NIC mappings in spirit:

* :class:`UnixDgramTransport` — ``AF_UNIX``/``SOCK_DGRAM``.  Same-host
  only, kernel-buffer "SHM-like" path: no checksums, no protocol
  headers, message boundaries preserved.  The closest a portable OS
  primitive gets to the PCA-200's memory-mapped FIFOs.
* :class:`UdpLoopbackTransport` — UDP on ``127.0.0.1``.  Crosses the
  full IP stack the way U-Net/FE's frames crossed the DC21140, and
  works between unrelated processes.

One transport is one node's "NIC": a single bound non-blocking socket.
All sends and receives are non-blocking; a send that would block
(receiver's kernel buffer full — the OS analogue of a full receive
ring) reports ``False`` so the backend can keep the descriptor queued
and retry, which is real backpressure rather than silent loss.  Every
syscall is counted: syscalls-per-message is one of the live benchmark's
headline numbers, exactly as the paper counted traps and doorbells.
"""

from __future__ import annotations

import errno
import os
import socket
import tempfile
from typing import List, Optional, Tuple

from ..core.errors import UNetError
from .mmsg import MmsgBatch, mmsg_available, pack_sockaddr

__all__ = [
    "TransportError",
    "LiveTransport",
    "UnixDgramTransport",
    "UdpLoopbackTransport",
    "TRANSPORT_KINDS",
    "transport_available",
    "available_transport_kinds",
    "make_transport",
]

#: datagrams drained from the socket per service-loop pass; bounding the
#: batch keeps one busy peer from starving the doorbell loop (and models
#: the bounded work a real interrupt handler does per invocation)
RECV_BATCH = 64

#: errnos that mean "the receiver's kernel buffer is full right now"
_WOULD_BLOCK = {errno.EAGAIN, getattr(errno, "EWOULDBLOCK", errno.EAGAIN), errno.ENOBUFS}

#: errnos that mean "the peer endpoint is gone" (teardown races)
_PEER_GONE = {errno.ECONNREFUSED, errno.ENOENT, errno.ECONNRESET}

_MSG_TRUNC = int(getattr(socket, "MSG_TRUNC", 0x20))


class TransportError(UNetError):
    """A live transport could not be created or used."""


class LiveTransport:
    """One node's datagram socket plus its syscall accounting."""

    kind = "abstract"
    COUNTERS = ("tx_syscalls", "rx_syscalls", "tx_datagrams", "rx_datagrams",
                "tx_bytes", "rx_bytes", "tx_would_block", "tx_peer_gone",
                "rx_truncated", "syscalls_per_message")
    #: socket address family, for raw sockaddr packing (mmsg path)
    family: Optional[int] = None

    def __init__(self, use_mmsg: Optional[bool] = None) -> None:
        self.sock: Optional[socket.socket] = None
        self.tx_syscalls = 0
        self.rx_syscalls = 0
        self.tx_datagrams = 0
        self.rx_datagrams = 0
        self.tx_bytes = 0
        self.rx_bytes = 0
        #: sends refused by a full kernel buffer (backpressure events)
        self.tx_would_block = 0
        #: sends to a peer that no longer exists (teardown races)
        self.tx_peer_gone = 0
        #: received datagrams larger than their receive slot (dropped)
        self.rx_truncated = 0
        #: None = auto-probe; the seam the fallback tests force shut
        self.use_mmsg = mmsg_available() if use_mmsg is None else use_mmsg
        # separate scratch per direction so alternating TX/RX doesn't
        # thrash the cached sockaddr/iovec slot state
        self._mmsg_tx: Optional[MmsgBatch] = None
        self._mmsg_rx: Optional[MmsgBatch] = None
        self._sockaddr_cache: dict = {}
        #: adaptive burst windows — how many datagrams the kernel has
        #: recently been willing to take/yield per call.  Composing a
        #: frame costs real work; composing 64 when the peer's buffer
        #: fits 11 wastes five frames of it per delivered message, so
        #: callers size their compose loop to this hint (AIMD-style:
        #: double on a clean batch, collapse to what actually went)
        self.tx_hint = 8
        self.rx_hint = 16
        #: set by :meth:`connect_peer` — pairwise pinned topology
        self.connected_peer = None

    # -- lifecycle ---------------------------------------------------------
    @property
    def address(self):
        """The opaque, sendable address peers use to reach this node."""
        raise NotImplementedError

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def __enter__(self) -> "LiveTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def connect_peer(self, dest) -> None:
        """Pin this socket to one peer (pairwise fast-path topology).

        AF_UNIX datagram sends to an *unconnected* receiver are capped
        at ``net.unix.max_dgram_qlen`` queued datagrams (10 on stock
        kernels) — a pipe far too shallow for batching to amortize
        anything.  Mutually connected peers are exempt: the kernel
        switches to buffer-based accounting, hundreds of datagrams
        deep.  This is the live analogue of the paper's pinned virtual
        circuit — both ends commit to the channel and the NI commits
        queue depth in return.  After pinning, this socket only
        exchanges datagrams with ``dest``; use it for two-node
        topologies only.
        """
        if self.sock is None:
            raise TransportError(f"{self.kind} transport is closed")
        self.sock.connect(dest)
        self.connected_peer = dest

    # -- data path ---------------------------------------------------------
    def send(self, dest, payload: bytes) -> bool:
        """Non-blocking datagram send.

        Returns True when the kernel accepted the datagram (or the peer
        is gone, in which case the datagram is charged as transmitted
        and dropped exactly as a NIC drops frames for a dead endpoint).
        Returns False when the send would block — the caller keeps the
        descriptor queued and retries on its next doorbell pass.
        """
        if self.sock is None:
            raise TransportError(f"{self.kind} transport is closed")
        self.tx_syscalls += 1
        try:
            if self.connected_peer is not None:
                self.sock.send(payload)
            else:
                self.sock.sendto(payload, dest)
        except (BlockingIOError, InterruptedError):
            self.tx_would_block += 1
            return False
        except OSError as exc:
            if exc.errno in _WOULD_BLOCK:
                self.tx_would_block += 1
                return False
            if exc.errno in _PEER_GONE:
                self.tx_peer_gone += 1
                return True
            raise
        self.tx_datagrams += 1
        self.tx_bytes += len(payload)
        return True

    def recv_batch(self) -> List[bytes]:
        """Drain up to :data:`RECV_BATCH` datagrams without blocking.

        A partial drain is normal: the remainder stays in the kernel
        buffer for the next pass, so a slow consumer backpressures the
        socket instead of losing data.
        """
        if self.sock is None:
            return []
        out: List[bytes] = []
        for _ in range(RECV_BATCH):
            self.rx_syscalls += 1
            try:
                raw, _addr = self.sock.recvfrom(65536)
            except (BlockingIOError, InterruptedError):
                break
            except OSError as exc:
                if exc.errno in _WOULD_BLOCK:
                    break
                if exc.errno in _PEER_GONE:
                    # queued ICMP refusal from a torn-down UDP peer;
                    # irrelevant to *our* ingress, keep draining
                    continue
                raise
            out.append(raw)
            self.rx_datagrams += 1
            self.rx_bytes += len(raw)
        return out

    # -- batched data path -------------------------------------------------
    def batch_path(self) -> str:
        """Which batching implementation this transport actually uses."""
        if self.use_mmsg and mmsg_available():
            return "sendmmsg/recvmmsg (ctypes)"
        return "portable sendto/recvmsg_into loop"

    def _packed_dest(self, dest) -> bytes:
        packed = self._sockaddr_cache.get(dest)
        if packed is None:
            packed = pack_sockaddr(self.family, dest)
            self._sockaddr_cache[dest] = packed
        return packed

    def _tx_batch(self) -> Optional[MmsgBatch]:
        if not (self.use_mmsg and mmsg_available()):
            return None
        if self._mmsg_tx is None:
            self._mmsg_tx = MmsgBatch()
        return self._mmsg_tx

    def _rx_batch(self) -> Optional[MmsgBatch]:
        if not (self.use_mmsg and mmsg_available()):
            return None
        if self._mmsg_rx is None:
            self._mmsg_rx = MmsgBatch()
        return self._mmsg_rx

    @staticmethod
    def _sendable(payload):
        # PooledSlice -> its valid bytes, in place; bytes pass through
        fn = getattr(payload, "payload", None)
        return fn() if fn is not None else payload

    def send_many_to(self, dest, payloads: List) -> int:
        """Send ``payloads`` to ``dest``; each is ``bytes`` or a
        :class:`~repro.live.bufpool.PooledSlice`.

        Returns how many datagrams were *disposed of* — accepted by the
        kernel or charged to a gone peer, exactly matching the scalar
        :meth:`send` contract per message.  Stops at the first
        would-block so the caller keeps the tail queued; the remainder
        is untouched and retries on the next doorbell pass.  One
        destination per call: U-Net channels are point-to-point, so the
        sockaddr is packed once, and a caller whose queue mixes
        destinations flushes it one destination's prefix at a time.
        """
        if self.sock is None:
            raise TransportError(f"{self.kind} transport is closed")
        batch = self._tx_batch()
        total = len(payloads)
        if batch is None:
            accepted = 0
            for payload in payloads:
                if not self.send(dest, self._sendable(payload)):
                    break
                accepted += 1
            self._update_tx_hint(accepted, total)
            return accepted
        accepted = 0
        fd = self.sock.fileno()
        # a pinned socket sends with msg_name NULL (kernel knows the peer)
        name = None if self.connected_peer is not None \
            else self._packed_dest(dest)
        while accepted < total:
            window = payloads[accepted:accepted + batch.max_batch] \
                if accepted or total > batch.max_batch else payloads
            self.tx_syscalls += 1
            try:
                sent = batch.sendmmsg_same(fd, name, window)
            except OSError as exc:
                if exc.errno in _WOULD_BLOCK:
                    self.tx_would_block += 1
                    break
                if exc.errno in _PEER_GONE:
                    self.tx_peer_gone += 1
                    accepted += 1
                    continue
                raise
            if sent == 0:
                break
            self.tx_bytes += batch.sent_bytes(sent)
            self.tx_datagrams += sent
            accepted += sent
            if sent < len(window):
                # a partial acceptance means the next send would block;
                # treat it as backpressure instead of burning a syscall
                # (and a full ctypes refill) to hear EAGAIN firsthand
                break
        self._update_tx_hint(accepted, total)
        return accepted

    def _update_tx_hint(self, accepted: int, attempted: int) -> None:
        if accepted >= attempted:
            # clean batch: probe upward, but additively — doubling past
            # the kernel's steady-state acceptance just composes frames
            # that bounce and get recomposed next pass
            self.tx_hint = min(RECV_BATCH,
                               max(self.tx_hint, attempted) + 4)
        else:
            self.tx_hint = max(1, accepted + 1)

    def recv_batch_into(self, pool) -> List:
        """Drain datagrams directly into ``pool`` slices (zero-copy RX).

        Returns the filled :class:`~repro.live.bufpool.PooledSlice`
        objects; the caller owns them and must return them after
        delivery (``pool.free`` each, or ``pool.give_back`` the list).
        Pool exhaustion bounds the drain — undrained datagrams stay in
        the kernel buffer (backpressure, counted by the pool's
        ``exhausted_total``), never silent loss.  A datagram
        larger than its slot is dropped and charged to ``rx_truncated``.
        """
        if self.sock is None:
            return []
        batch = self._rx_batch()
        if batch is None:
            out: List = []
            for _ in range(RECV_BATCH):
                slice_ = pool.try_alloc()
                if slice_ is None:
                    break
                self.rx_syscalls += 1
                try:
                    nbytes, _anc, flags, _addr = self.sock.recvmsg_into(
                        [slice_.view])
                except (BlockingIOError, InterruptedError):
                    pool.free(slice_)
                    break
                except OSError as exc:
                    pool.free(slice_)
                    if exc.errno in _WOULD_BLOCK:
                        break
                    if exc.errno in _PEER_GONE:
                        continue  # queued ICMP refusal; keep draining
                    raise
                if flags & _MSG_TRUNC:
                    self.rx_truncated += 1
                    pool.free(slice_)
                    continue
                slice_.length = nbytes
                self.rx_datagrams += 1
                self.rx_bytes += nbytes
                out.append(slice_)
            return out
        slices = pool.take(min(RECV_BATCH, batch.max_batch, self.rx_hint))
        if not slices:
            return slices
        want = len(slices)
        self.rx_syscalls += 1
        try:
            results = batch.recvmmsg(self.sock.fileno(), slices)
        except OSError as exc:
            pool.give_back(slices)
            if exc.errno in _PEER_GONE:
                return []
            raise
        got = len(results)
        if got < want:
            pool.give_back(slices[got:])
            del slices[got:]
            # received + a small margin: every slice armed beyond what
            # actually arrives is a wasted take/give-back
            self.rx_hint = max(4, got + 4)
        else:
            self.rx_hint = min(RECV_BATCH, want * 2)
        nbytes_total = 0
        truncated = []
        for slice_, (flags, nbytes) in zip(slices, results):
            if flags & _MSG_TRUNC:
                truncated.append(slice_)
                continue
            slice_.length = nbytes
            nbytes_total += nbytes
        if truncated:  # rare: datagrams larger than their slot
            self.rx_truncated += len(truncated)
            pool.give_back(truncated)
            slices = [slice_ for slice_ in slices if slice_ not in truncated]
        self.rx_datagrams += len(slices)
        self.rx_bytes += nbytes_total
        return slices

    # -- accounting --------------------------------------------------------
    @property
    def syscalls_per_message(self) -> float:
        """Kernel crossings per datagram moved — the paper's headline
        ratio.  1.0 is the scalar baseline; batching drives it toward
        1/batch-size."""
        messages = self.tx_datagrams + self.rx_datagrams
        if messages == 0:
            return 0.0
        return (self.tx_syscalls + self.rx_syscalls) / messages


class UnixDgramTransport(LiveTransport):
    """AF_UNIX SOCK_DGRAM: the same-host, SHM-like backend."""

    kind = "unix"
    family = getattr(socket, "AF_UNIX", None)

    def __init__(self, name: str = "node", use_mmsg: Optional[bool] = None) -> None:
        super().__init__(use_mmsg=use_mmsg)
        if not hasattr(socket, "AF_UNIX"):
            raise TransportError("AF_UNIX is not available on this platform")
        self._dir = tempfile.mkdtemp(prefix="unet-live-")
        self.path = os.path.join(self._dir, f"{name}.sock")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
        try:
            sock.bind(self.path)
            sock.setblocking(False)
        except OSError:
            sock.close()
            raise
        self.sock = sock

    @property
    def address(self) -> str:
        return self.path

    def close(self) -> None:
        super().close()
        try:
            os.unlink(self.path)
            os.rmdir(self._dir)
        except OSError:
            pass


class UdpLoopbackTransport(LiveTransport):
    """UDP on 127.0.0.1: the cross-process backend."""

    kind = "udp"
    family = socket.AF_INET

    def __init__(self, name: str = "node", use_mmsg: Optional[bool] = None) -> None:
        super().__init__(use_mmsg=use_mmsg)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.bind(("127.0.0.1", 0))
            sock.setblocking(False)
        except OSError as exc:
            sock.close()
            raise TransportError(f"cannot bind UDP loopback: {exc}") from exc
        self.sock = sock

    @property
    def address(self) -> Tuple[str, int]:
        return self.sock.getsockname()


TRANSPORT_KINDS = ("unix", "udp")


def transport_available(kind: str) -> bool:
    """Can a ``kind`` transport be created on this machine?"""
    if kind == "unix":
        if not hasattr(socket, "AF_UNIX"):
            return False
    elif kind != "udp":
        return False
    try:
        make_transport(kind, name="probe").close()
        return True
    except (TransportError, OSError):
        return False


def available_transport_kinds() -> Tuple[str, ...]:
    return tuple(k for k in TRANSPORT_KINDS if transport_available(k))


def make_transport(kind: str, name: str, use_mmsg: Optional[bool] = None) -> LiveTransport:
    if kind == "unix":
        return UnixDgramTransport(name, use_mmsg)
    if kind == "udp":
        return UdpLoopbackTransport(name, use_mmsg)
    raise TransportError(f"unknown transport kind {kind!r}; choose from {TRANSPORT_KINDS}")
