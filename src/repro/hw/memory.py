"""Buffer areas and pinned memory regions.

A U-Net *buffer area* (Section 3.1) is a contiguous region of pinned
memory owned by one endpoint, divided by the application into fixed-size
buffers.  The architecture deliberately leaves buffer management to the
application; this module provides the storage plus the simple fixed-size
allocator our Active Messages layer uses on top.

Buffers hold real bytes so that corruption, CRC checking, and message
reassembly are exercised for real.  The bytes live in one private
anonymous memory map per area: the kernel hands out zeroed pages on
first touch, so an area costs address space when it is built and
resident memory only for the buffers a run writes.
"""

from __future__ import annotations

import mmap
from typing import List, Optional

__all__ = ["Buffer", "BufferArea", "BufferAreaError"]


#: private to this process where the platform lets a map say so, so a
#: forked child never shares a parent's areas (the default is MAP_SHARED)
_MAP_FLAGS = ({"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS}
              if hasattr(mmap, "MAP_PRIVATE") else {})


class BufferAreaError(Exception):
    """Invalid buffer-area operation (bad offset, double free, exhaustion)."""


class Buffer:
    """A view of one fixed-size buffer within a :class:`BufferArea`."""

    __slots__ = ("area", "index", "offset", "size", "length")

    def __init__(self, area: "BufferArea", index: int) -> None:
        self.area = area
        self.index = index
        self.offset = index * area.buffer_size
        self.size = area.buffer_size
        #: number of valid payload bytes currently stored
        self.length = 0

    def write(self, data: bytes, at: int = 0) -> None:
        """Store ``data`` into the buffer starting at byte ``at``."""
        if at < 0 or at + len(data) > self.size:
            raise BufferAreaError(
                f"write of {len(data)} bytes at {at} overruns buffer of {self.size}"
            )
        self.area.storage[self.offset + at : self.offset + at + len(data)] = data
        self.length = max(self.length, at + len(data))

    def append(self, data: bytes) -> None:
        """Append ``data`` after the bytes already stored (cell reassembly)."""
        self.write(data, at=self.length)

    def read(self, nbytes: Optional[int] = None) -> bytes:
        """The first ``nbytes`` (default: all valid) payload bytes."""
        n = self.length if nbytes is None else nbytes
        if n < 0 or n > self.size:
            raise BufferAreaError(f"read of {n} bytes from buffer of {self.size}")
        return self.area.storage[self.offset : self.offset + n]

    def view(self, nbytes: Optional[int] = None) -> memoryview:
        """Like :meth:`read` but zero-copy: a memoryview into the pinned
        area, valid until the buffer is rewritten or recycled."""
        n = self.length if nbytes is None else nbytes
        if n < 0 or n > self.size:
            raise BufferAreaError(f"view of {n} bytes from buffer of {self.size}")
        return self.area.storage_view[self.offset : self.offset + n]

    def clear(self) -> None:
        self.length = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Buffer #{self.index} len={self.length}/{self.size}>"


class BufferArea:
    """Pinned message-buffer region of one U-Net endpoint."""

    def __init__(self, num_buffers: int, buffer_size: int) -> None:
        if num_buffers <= 0 or buffer_size <= 0:
            raise ValueError("num_buffers and buffer_size must be positive")
        self.num_buffers = num_buffers
        self.buffer_size = buffer_size
        #: the area's bytes; buffer ``i`` is ``storage[i * buffer_size:]``.
        #: Paths that already hold a validated (index, length) pair copy in
        #: and out by slice here, without a :class:`Buffer` call per copy
        self.storage: Optional[mmap.mmap] = mmap.mmap(-1, num_buffers * buffer_size,
                                                      **_MAP_FLAGS)
        self._buffers = [Buffer(self, i) for i in range(num_buffers)]
        self._free: List[int] = list(range(num_buffers))
        self._allocated = [False] * num_buffers
        self._view: Optional[memoryview] = None

    @property
    def storage_view(self) -> memoryview:
        """One cached memoryview over the whole area (created on first
        zero-copy access; the export pins the storage, which is the
        point — buffer areas are pinned memory)."""
        if self._view is None:
            self._view = memoryview(self.storage)
        return self._view

    def close(self) -> None:
        """Give the area back: unmap the storage, forget the buffers.

        A closed area has no buffers (``num_buffers`` reads 0), so every
        index is out of range to :meth:`buffer` and to the endpoint's
        descriptor checks.  Idempotent.  A view somebody still holds
        (``Buffer.view``, ``storage_view``) keeps the map alive until
        that holder lets go — the pages outlive the area, the area does
        not wait for them.
        """
        if self.storage is None:
            return
        storage, self.storage = self.storage, None
        self._view = None
        self.num_buffers = 0
        self._buffers = []
        self._free = []
        self._allocated = []
        try:
            storage.close()
        except BufferError:
            pass  # a view is held elsewhere: unmapped when its last holder lets go

    @property
    def closed(self) -> bool:
        return self.storage is None

    @property
    def total_bytes(self) -> int:
        return self.num_buffers * self.buffer_size

    @property
    def free_count(self) -> int:
        return len(self._free)

    def buffer(self, index: int) -> Buffer:
        """Direct access to buffer ``index`` (no allocation bookkeeping)."""
        if not 0 <= index < self.num_buffers:
            raise BufferAreaError(f"buffer index {index} out of range")
        return self._buffers[index]

    def alloc(self) -> Buffer:
        """Take a buffer from the free pool."""
        if not self._free:
            raise BufferAreaError("buffer area exhausted")
        return self.try_alloc()

    def try_alloc(self) -> Optional[Buffer]:
        """Take a buffer from the free pool; None when it is empty."""
        if not self._free:
            return None
        index = self._free.pop()
        self._allocated[index] = True
        buf = self._buffers[index]
        buf.length = 0
        return buf

    def free(self, buf: Buffer) -> None:
        """Return ``buf`` to the free pool."""
        if buf.area is not self:
            raise BufferAreaError("buffer belongs to a different area")
        if not self._allocated[buf.index]:
            raise BufferAreaError(f"double free of buffer {buf.index}")
        self._allocated[buf.index] = False
        self._free.append(buf.index)
