"""ctypes ``sendmmsg``/``recvmmsg``: many datagrams per kernel crossing.

The paper's whole argument is amortizing the cost of crossing a
protection boundary; Linux grew the same amortization for sockets in
``sendmmsg(2)``/``recvmmsg(2)`` — one trap moves a vector of datagrams.
CPython never wrapped them, so this module reaches them through ctypes.
Everything is probed at import: on platforms without the symbols (or
without Linux struct layouts) :func:`mmsg_available` is False and the
transport quietly uses its portable per-datagram loop — same semantics,
more syscalls.

The hot-path contract: all ctypes arrays (headers, iovecs, sockaddr
scratch) are preallocated once per :class:`MmsgBatch`; filling a slot
for one message stores only the fields that changed since the slot's
last use, and a receive's results are read off the raw header array
with one precompiled ``struct``.  Payloads are addressed
in place — a :class:`~repro.live.bufpool.PooledSlice` hands over its
stable arena address, ``bytes`` lends its internal pointer for the
duration of the call — so batching composes with the zero-copy pool
rather than undoing it.
"""

from __future__ import annotations

import ctypes
import errno
import socket
import struct
import sys
from typing import List, Optional, Sequence, Tuple

__all__ = ["MMSG_MAX_BATCH", "mmsg_available", "MmsgBatch", "pack_sockaddr"]

#: datagrams per sendmmsg/recvmmsg call (also the preallocation bound)
MMSG_MAX_BATCH = 64

_MSG_DONTWAIT = int(getattr(socket, "MSG_DONTWAIT", 0x40))
_SOCKADDR_MAX = 128  # >= sizeof(struct sockaddr_un) on Linux (110)


class _iovec(ctypes.Structure):
    _fields_ = [("iov_base", ctypes.c_void_p),
                ("iov_len", ctypes.c_size_t)]


class _msghdr(ctypes.Structure):
    # glibc layout; ctypes inserts the same natural-alignment padding
    _fields_ = [("msg_name", ctypes.c_void_p),
                ("msg_namelen", ctypes.c_uint),
                ("msg_iov", ctypes.POINTER(_iovec)),
                ("msg_iovlen", ctypes.c_size_t),
                ("msg_control", ctypes.c_void_p),
                ("msg_controllen", ctypes.c_size_t),
                ("msg_flags", ctypes.c_int)]


class _mmsghdr(ctypes.Structure):
    _fields_ = [("msg_hdr", _msghdr),
                ("msg_len", ctypes.c_uint)]


def _load() -> Tuple[Optional[object], Optional[object]]:
    """The (sendmmsg, recvmmsg) foreign functions, or (None, None)."""
    if not sys.platform.startswith("linux"):
        return None, None
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        sendmmsg = libc.sendmmsg
        recvmmsg = libc.recvmmsg
    except (OSError, AttributeError):
        return None, None
    sendmmsg.restype = ctypes.c_int
    sendmmsg.argtypes = [ctypes.c_int, ctypes.POINTER(_mmsghdr),
                         ctypes.c_uint, ctypes.c_int]
    recvmmsg.restype = ctypes.c_int
    recvmmsg.argtypes = [ctypes.c_int, ctypes.POINTER(_mmsghdr),
                         ctypes.c_uint, ctypes.c_int, ctypes.c_void_p]
    return sendmmsg, recvmmsg


_SENDMMSG, _RECVMMSG = _load()


def mmsg_available() -> bool:
    """True when the ctypes sendmmsg/recvmmsg path is usable here."""
    return _SENDMMSG is not None and _RECVMMSG is not None


def pack_sockaddr(family: int, address) -> bytes:
    """``address`` as the raw ``struct sockaddr`` bytes sendmmsg wants."""
    if family == getattr(socket, "AF_UNIX", -1):
        path = address.encode() if isinstance(address, str) else bytes(address)
        if len(path) + 3 > _SOCKADDR_MAX:
            raise ValueError(f"AF_UNIX path too long: {address!r}")
        return struct.pack("@H", family) + path + b"\x00"
    if family == socket.AF_INET:
        host, port = address
        return (struct.pack("@H", family) + struct.pack("!H", port)
                + socket.inet_aton(host) + b"\x00" * 8)
    raise ValueError(f"unsupported address family {family}")


def _buffer_address(buf, writable: bool) -> Tuple[int, int, object]:
    """(address, length, anchor) of a ``bytes`` payload or a writable
    buffer; the anchor keeps the pointer valid until the syscall is
    done.  ``bytes`` lends its internal pointer, so only sends take it;
    writable buffers go through ``from_buffer``."""
    if isinstance(buf, bytes) and not writable:
        anchor = ctypes.c_char_p(buf)
        return ctypes.cast(anchor, ctypes.c_void_p).value or 0, len(buf), anchor
    anchor = (ctypes.c_char * len(buf)).from_buffer(buf)
    return ctypes.addressof(anchor), len(anchor), anchor


#: one ``struct mmsghdr`` read as its ``(msg_flags, msg_len)`` pair, the
#: rest as pad bytes: what a receive reports, taken off the raw header
#: array without building a ctypes object per datagram
_MMSGHDR_SIZE = ctypes.sizeof(_mmsghdr)
_FLAGS_AT = _mmsghdr.msg_hdr.offset + _msghdr.msg_flags.offset
_LEN_AT = _mmsghdr.msg_len.offset
_RECEIVED = struct.Struct(f"={_FLAGS_AT}xi{_LEN_AT - _FLAGS_AT - 4}xI"
                          f"{_MMSGHDR_SIZE - _LEN_AT - 4}x")


class MmsgBatch:
    """Preallocated scratch for one socket's mmsg calls."""

    def __init__(self) -> None:
        if not mmsg_available():
            raise RuntimeError("sendmmsg/recvmmsg are not available here")
        self.max_batch = max_batch = MMSG_MAX_BATCH
        self._headers = (_mmsghdr * max_batch)()
        self._iovecs = (_iovec * max_batch)()
        self._names = [ctypes.create_string_buffer(_SOCKADDR_MAX)
                       for _ in range(max_batch)]
        #: the header array as bytes, for reading back what the kernel wrote
        self._raw = memoryview(self._headers).cast("B")
        # everything that never varies is wired up once here: iovec and
        # sockaddr pointers, control fields.  ctypes attribute stores
        # are the expensive part of a fill, so the per-message work
        # below is reduced to the fields that actually change — and
        # each of those is cached and skipped when it repeats: a steady
        # burst from the pool (same slots, same order, same size, one
        # destination) stores nothing at all.
        self._name_ptrs = [ctypes.cast(name, ctypes.c_void_p)
                           for name in self._names]
        for i in range(max_batch):
            hdr = self._headers[i].msg_hdr
            hdr.msg_name = self._name_ptrs[i]
            hdr.msg_namelen = 0
            hdr.msg_iov = ctypes.pointer(self._iovecs[i])
            hdr.msg_iovlen = 1
            hdr.msg_control = None
            hdr.msg_controllen = 0
        self._slot_name: List[Optional[bytes]] = [None] * max_batch
        self._slot_base: List[int] = [0] * max_batch
        self._slot_len: List[int] = [0] * max_batch
        self._rx_armed = 0  # slots already pointed at msg_name=NULL

    # -- slot state ------------------------------------------------------------
    def _named(self, name: bytes, count: int) -> None:
        """Slots ``0..count-1`` carry sockaddr ``name``; a slot is re-armed
        (after a receive or a connected send) only where it changed."""
        slot_name = self._slot_name
        for i in range(count):
            if slot_name[i] != name:
                self._names[i].raw = name
                hdr = self._headers[i].msg_hdr
                hdr.msg_name = self._name_ptrs[i]
                hdr.msg_namelen = len(name)
                slot_name[i] = name
        self._rx_armed = 0  # sockaddr pointers are live again

    def _unnamed(self, count: int) -> None:
        """Slots ``0..count-1`` carry no sockaddr (receives, connected
        sends); each is disarmed once and remembered."""
        headers, slot_name = self._headers, self._slot_name
        for i in range(self._rx_armed, count):
            hdr = headers[i].msg_hdr
            hdr.msg_name = None
            hdr.msg_namelen = 0
            slot_name[i] = None
        if count > self._rx_armed:
            self._rx_armed = count

    def _aim(self, buffers: Sequence, count: int, writable: bool) -> List[object]:
        """Point iovec ``i`` at ``buffers[i]`` for every ``i < count``,
        storing only what changed since the slot's last use; returns the
        anchors that must outlive the syscall.  A PooledSlice is sent
        for its ``length`` and received into for its whole slot."""
        keepalive: List[object] = []
        iovecs, slot_base, slot_len = self._iovecs, self._slot_base, self._slot_len
        for i in range(count):
            buf = buffers[i]
            address = getattr(buf, "address", None)
            if address is None:
                address, length, anchor = _buffer_address(buf, writable)
                keepalive.append(anchor)
            elif writable:
                length = buf.pool.slot_size
            else:
                length = buf.length
            if slot_base[i] != address:
                iovecs[i].iov_base = address
                slot_base[i] = address
            if slot_len[i] != length:
                iovecs[i].iov_len = length
                slot_len[i] = length
        return keepalive

    def sent_bytes(self, count: int) -> int:
        """Payload bytes in the first ``count`` slots of the last send —
        what the kernel took when it accepted ``count`` datagrams."""
        return sum(self._slot_len[:count])

    # -- egress --------------------------------------------------------------
    def _send(self, fd: int, payloads: Sequence, count: int) -> int:
        keepalive = self._aim(payloads, count, False)
        sent = _SENDMMSG(fd, self._headers, count, _MSG_DONTWAIT)
        del keepalive
        if sent < 0:
            err = ctypes.get_errno()
            raise OSError(err, f"sendmmsg failed: errno {err}")
        return sent

    def sendmmsg_same(self, fd: int, name: Optional[bytes],
                      payloads: Sequence) -> int:
        """Send ``payloads`` to the packed sockaddr ``name`` in one syscall.

        Returns how many the kernel accepted (0..len, at most
        ``max_batch``).  Raises OSError with the kernel errno when not
        even the first one went — EAGAIN/ECONNREFUSED dispositions are
        the *caller's* policy, the same as for a scalar ``sendto``.
        ``name=None`` sends on a connected socket — msg_name NULL, the
        same slot state receives use, so the arming bookkeeping is
        shared and steady-state bursts store nothing.
        """
        count = min(len(payloads), self.max_batch)
        if name is None:
            self._unnamed(count)
        else:
            self._named(name, count)
        return self._send(fd, payloads, count)

    # -- ingress -------------------------------------------------------------
    def recvmmsg(self, fd: int, views: Sequence) -> List[Tuple[int, int]]:
        """Fill ``views`` (PooledSlices or writable buffers) from ``fd``.

        One syscall; returns ``(msg_flags, nbytes)`` per datagram
        received, possibly none (``msg_flags & MSG_TRUNC``: it did not
        fit its buffer).  Raises OSError on a real error; EAGAIN comes
        back as the empty list (nothing waiting).
        """
        count = min(len(views), self.max_batch)
        self._unnamed(count)
        keepalive = self._aim(views, count, True)
        got = _RECVMMSG(fd, self._headers, count, _MSG_DONTWAIT, None)
        del keepalive
        if got < 0:
            err = ctypes.get_errno()
            if err in (errno.EAGAIN, getattr(errno, "EWOULDBLOCK", errno.EAGAIN),
                       errno.EINTR):
                return []  # nothing waiting
            raise OSError(err, f"recvmmsg failed: errno {err}")
        return list(_RECEIVED.iter_unpack(self._raw[:got * _MMSGHDR_SIZE]))
