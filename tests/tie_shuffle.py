"""Tie shuffle: same-instant heap entries run in a seeded random order.

A test helper, not a kernel option.  For the length of a ``with`` block
it wraps the two ``heappush`` names the kernel pushes through
(``sim.events.heappush`` and ``sim.engine``'s ``heapq``, the pair
:mod:`tests.heap_census` wraps) and replaces the ``_seq`` tie key of
every entry pushed inside the block with a draw from one seeded
``random.Random``.  Entries due at one instant and priority then run in
the order the seed picks, not in insertion order.  A
:class:`~repro.sim.Lane` keeps its own calls in FIFO order; only its
head's place among other entries is drawn.

A figure that moves under a shuffle depends on an arbitration choice
the model never made; one that does not is tie-independent.  ``seed``
None leaves the block unchanged (the committed order), so a test can
parametrize over it beside the shuffles.
"""

import contextlib
import heapq
import random
import types

from repro.sim import engine, events


@contextlib.contextmanager
def tie_shuffle(seed):
    """Break every same-instant tie pushed inside the block at random."""
    if seed is None:
        yield
        return
    draw = random.Random(seed).random

    def push(queue, entry):
        when, priority, _seq, item = entry
        heapq.heappush(queue, (when, priority, draw(), item))

    shim = types.SimpleNamespace(heappush=push, heappop=heapq.heappop)
    saved = events.heappush, engine.heapq
    events.heappush, engine.heapq = push, shim
    try:
        yield
    finally:
        events.heappush, engine.heapq = saved
