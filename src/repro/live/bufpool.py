"""Preallocated zero-copy buffer pool for the live fast path.

The paper's buffer areas are pinned, preregistered memory the NI DMAs
into without per-message allocation; the modern userspace-networking
reborn form ("Fast Userspace Networking for the Rest of Us", PAPERS.md)
is a preallocated pool of fixed slots the kernel scatter-gathers into
via ``recvmmsg``/``recvmsg_into``.  This module is that pool: one
``bytearray`` arena carved into :class:`PooledSlice` views, recycled
through an explicit free list, so the live RX/TX hot loops never
allocate a per-message ``bytes`` object.

Invariants (pinned by ``tests/live/test_bufpool.py``):

* two in-flight slices never alias — each owns a disjoint byte range of
  the arena;
* slices never leak — every ``alloc`` is balanced by exactly one
  ``free``, double frees raise, and a fully-freed pool is back to full
  capacity;
* exhaustion is *backpressure*, never silent loss: ``try_alloc``
  returns None, ``alloc`` raises the typed :class:`PoolExhausted`
  (``drop_class == "backpressure"``), and callers keep their message
  queued for the next doorbell pass exactly as they do for a full
  kernel buffer.

The batched data path moves a burst at a time, so the pool also lends
and takes back a burst in one call (:meth:`BufferPool.take` /
:meth:`BufferPool.give_back`) under the same three invariants, with
each check made once per burst by set operations instead of once per
slice.  ``take(n)`` hands out exactly the slices ``n`` ``try_alloc``
calls would, and ``give_back`` restacks them so that a steady burst
gets the same slots back in the same order — which is what lets
:class:`~repro.live.mmsg.MmsgBatch` skip re-pointing its iovecs.

The arena's :class:`memoryview` export pins the ``bytearray`` for the
pool's lifetime, so slot addresses are stable — which is what lets the
ctypes ``sendmmsg``/``recvmmsg`` path (:mod:`repro.live.mmsg`) cache
the base address once and do integer math per message instead of
re-deriving pointers.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Optional, Sequence

from ..core.errors import UNetError

__all__ = ["PoolExhausted", "PooledSlice", "BufferPool"]

_INDEX = attrgetter("index")
_POOL = attrgetter("pool")


class PoolExhausted(UNetError):
    """No free slot in the pool right now: backpressure, retry later."""

    #: exhaustion maps to the shared backpressure vocabulary — the
    #: transport charges it to ``tx_would_block`` and the message stays
    #: queued, exactly like an EAGAIN from a full kernel buffer
    drop_class = "backpressure"


class PooledSlice:
    """One fixed-size slot of a :class:`BufferPool`.

    ``view`` is a writable :class:`memoryview` over the slot's whole
    byte range; ``length`` is how many of those bytes currently hold
    payload (set by whoever filled the slot).  A slice is only valid
    between the ``alloc`` that produced it and the matching ``free``;
    holding the view past ``free`` is aliasing, which is why consumers
    that need to keep data (delayed fault stages, inline descriptors)
    must copy out first.
    """

    __slots__ = ("pool", "index", "view", "length", "address")

    def __init__(self, pool: "BufferPool", index: int, view: memoryview) -> None:
        self.pool = pool
        self.index = index
        self.view = view
        self.length = 0
        #: stable arena address of this slot's first byte (for mmsg);
        #: precomputed — the hot path does zero arithmetic to find it
        self.address = pool.base_address + index * pool.slot_size

    @property
    def in_flight(self) -> bool:
        """Lent out and not yet returned (the pool keeps the books)."""
        return self.index in self.pool._lent

    def payload(self) -> memoryview:
        """The valid bytes: ``view[:length]`` without a copy."""
        return self.view[: self.length]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "in-flight" if self.in_flight else "free"
        return f"<PooledSlice #{self.index} len={self.length} {state}>"


class BufferPool:
    """Fixed arena of ``slots`` × ``slot_size`` bytes with a free list."""

    COUNTERS = ("free_count", "in_flight_count", "alloc_total", "free_total",
                "exhausted_total")

    def __init__(self, slots: int, slot_size: int) -> None:
        if slots <= 0 or slot_size <= 0:
            raise ValueError("slots and slot_size must be positive")
        self.slots = slots
        self.slot_size = slot_size
        self._arena = bytearray(slots * slot_size)
        #: the export that pins the arena (and every slot address) in place
        self._view = memoryview(self._arena)
        self.base_address = _buffer_address(self._arena)
        self._slices = [
            PooledSlice(self, i, self._view[i * slot_size:(i + 1) * slot_size])
            for i in range(slots)
        ]
        #: a stack: the next slot lent is the last one here
        self._free: List[int] = list(range(slots - 1, -1, -1))
        #: indices of the slots lent out right now
        self._lent: set = set()
        # accounting
        self.alloc_total = 0
        self.free_total = 0
        self.exhausted_total = 0

    # -- introspection -----------------------------------------------------
    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def in_flight_count(self) -> int:
        return self.slots - len(self._free)

    # -- alloc / recycle ---------------------------------------------------
    def try_alloc(self) -> Optional[PooledSlice]:
        """A free slice, or None when exhausted (backpressure)."""
        if not self._free:
            self.exhausted_total += 1
            return None
        index = self._free.pop()
        self._lent.add(index)
        slice_ = self._slices[index]
        slice_.length = 0
        self.alloc_total += 1
        return slice_

    def alloc(self) -> PooledSlice:
        """Like :meth:`try_alloc` but raises :class:`PoolExhausted`."""
        slice_ = self.try_alloc()
        if slice_ is None:
            raise PoolExhausted(
                f"buffer pool exhausted ({self.slots} slots all in flight)")
        return slice_

    def free(self, slice_: PooledSlice) -> None:
        """Recycle ``slice_``; double frees and foreign slices raise."""
        if slice_.pool is not self:
            raise UNetError("slice belongs to a different pool")
        index = slice_.index
        if index not in self._lent:
            raise UNetError(f"double free of pool slice #{index}")
        self._lent.remove(index)
        slice_.length = 0
        self._free.append(index)
        self.free_total += 1

    # -- bursts --------------------------------------------------------------
    def take(self, count: int) -> List[PooledSlice]:
        """Lend up to ``count`` slices in one call: the ones ``count``
        :meth:`try_alloc` calls would lend, in that order.  A short pool
        lends what it has, possibly nothing, and counts one exhaustion
        (backpressure, as ``try_alloc``'s None).  Lengths are left for
        the taker to set."""
        free = self._free
        if count > len(free):
            self.exhausted_total += 1
            count = len(free)
        if count <= 0:
            return []
        indices = free[-count:]
        del free[-count:]
        indices.reverse()
        self._lent.update(indices)
        self.alloc_total += count
        return list(map(self._slices.__getitem__, indices))

    def give_back(self, slices: Sequence[PooledSlice]) -> None:
        """Return a burst in one call, with :meth:`free`'s checks made
        before anything changes: a foreign slice, one not lent or one
        listed twice raises and leaves the pool as it was.  Given back
        in the order :meth:`take` lent them (a tail before its head is
        fine), the next equal ``take`` lends the same slots in the same
        order."""
        indices = list(map(_INDEX, slices))
        if list(map(_POOL, slices)).count(self) != len(indices):
            raise UNetError("slice belongs to a different pool")
        returned = set(indices)
        if len(returned) != len(indices) or not returned <= self._lent:
            twice = next(i for i in indices
                         if i not in self._lent or indices.count(i) > 1)
            raise UNetError(f"double free of pool slice #{twice}")
        self._lent -= returned
        indices.reverse()
        self._free.extend(indices)
        self.free_total += len(indices)


def _buffer_address(buf: bytearray) -> int:
    """The arena's base address, via ctypes (0 when ctypes is absent —
    the portable paths never dereference it)."""
    try:
        import ctypes

        return ctypes.addressof(ctypes.c_char.from_buffer(buf))
    except Exception:  # pragma: no cover - exotic platforms
        return 0
