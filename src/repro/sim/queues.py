"""Blocking and non-blocking queue primitives used across the stack.

Two flavours are provided:

* :class:`Store` — a blocking FIFO in the process-interaction style
  (``yield store.get()`` / ``yield store.put(item)``), used for links,
  FIFOs, and mailboxes inside device models.
* :class:`BoundedRing` — a non-blocking fixed-capacity ring with
  notification hooks, modelling the hardware descriptor rings and the
  U-Net send/receive/free queues, which in the paper are plain memory
  polled by firmware or the kernel.
* :class:`Resource` — counted resource with FIFO request queue (used for
  bus arbitration and the shared Ethernet medium).
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Callable, Deque, Generic, List, Optional, Tuple, TypeVar

from .engine import Simulator
from .events import Event

__all__ = ["Store", "BoundedRing", "RingFullError", "RingEmptyError", "Resource"]

T = TypeVar("T")


class Store(Generic[T]):
    """Blocking FIFO channel between simulation processes."""

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = "store") -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._put_name, self._get_name = f"{name}.put", f"{name}.get"  # built once, not per event
        self._items: Deque[T] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, T]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: T) -> Event:
        """Event that fires once ``item`` has been deposited."""
        event = Event(self.sim, self._put_name)
        if not self.is_full:
            self._deposit(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def try_put(self, item: T) -> bool:
        """Non-blocking put; returns False when full."""
        if self.is_full:
            return False
        self._deposit(item)
        return True

    def get(self) -> Event:
        """Event that fires with the next item."""
        event = Event(self.sim, self._get_name)
        if self._items:
            event.succeed(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Optional[T]:
        """Non-blocking get; returns None when empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self._admit_putter()
        return item

    def _deposit(self, item: T) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            putter, item = self._putters.popleft()
            self._deposit(item)
            putter.succeed()


class RingFullError(Exception):
    """Push onto a full :class:`BoundedRing`."""


class RingEmptyError(Exception):
    """Pop from an empty :class:`BoundedRing`."""


class BoundedRing(Generic[T]):
    """Fixed-capacity FIFO ring with synchronous access and wakeup hooks.

    This mirrors the paper's queues: descriptor rings and U-Net message
    queues live in (simulated) memory, are written/read instantaneously by
    whoever holds the CPU, and are *polled* by their consumer.  The
    ``on_nonempty`` hooks let a consumer model sleep until producers push
    (e.g. the U-Net receive-queue ``select()``/signal upcall path).

    :attr:`items` is the ring's memory, oldest entry first.  A poller
    reads and pops it directly (``if ring.items``, ``ring.items[0]``,
    ``ring.items.popleft()``), as firmware reads a descriptor ring: the
    per-packet paths test and take entries without a call per look.
    Producers go through :meth:`push` / :meth:`try_push`, which hold the
    capacity and fire the hooks.
    """

    def __init__(self, capacity: int, name: str = "ring") -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self.name = name
        self.items: Deque[T] = deque()
        self._nonempty_hooks: List[Callable[["BoundedRing[T]"], None]] = []

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_empty(self) -> bool:
        return not self.items

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self.items)

    def push(self, item: T) -> None:
        """Append ``item``; raises :class:`RingFullError` when full."""
        items = self.items
        if len(items) >= self.capacity:
            raise RingFullError(f"{self.name} is full (capacity {self.capacity})")
        items.append(item)
        if self._nonempty_hooks and len(items) == 1:
            self._run_hooks()

    def try_push(self, item: T) -> bool:
        """Append ``item`` if space allows; False (nothing queued) otherwise."""
        items = self.items
        if len(items) >= self.capacity:
            return False
        items.append(item)
        if self._nonempty_hooks and len(items) == 1:
            self._run_hooks()
        return True

    def _run_hooks(self) -> None:
        hooks, self._nonempty_hooks = self._nonempty_hooks, []
        for hook in hooks:
            hook(self)

    def pop(self) -> T:
        if not self.items:
            raise RingEmptyError(f"{self.name} is empty")
        return self.items.popleft()

    def try_pop(self) -> Optional[T]:
        return self.items.popleft() if self.items else None

    def peek(self) -> Optional[T]:
        return self.items[0] if self.items else None

    def peek_many(self, n: int) -> List[T]:
        """The first ``n`` items, oldest first, without popping.

        Lets a batching consumer compose one burst from the queue head
        and then pop exactly as many entries as the device accepted —
        the tail stays queued under backpressure, FIFO order intact.
        """
        return list(islice(self.items, n))

    def drain(self) -> List[T]:
        """Pop everything currently queued (the 'consume all pending
        messages in a single upcall' amortization from §3.1)."""
        items = list(self.items)
        self.items.clear()
        return items

    def on_nonempty(self, hook: Callable[["BoundedRing[T]"], None]) -> None:
        """Register a one-shot hook run when the ring goes empty→non-empty.

        If the ring already holds items the hook runs immediately.
        """
        if self.items:
            hook(self)
        else:
            self._nonempty_hooks.append(hook)


class Resource:
    """Counted resource with FIFO queued acquisition."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._acquire_name = f"{name}.acquire"
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def try_acquire(self) -> bool:
        """Take a free unit on the spot (no Event, no heap entry); False when none is free."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def acquire(self) -> Event:
        event = Event(self.sim, self._acquire_name)
        if self.try_acquire():
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name}")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1
