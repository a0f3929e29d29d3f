"""Store-race check: a remote store's bytes survive until the next fence.

A test helper, not a runtime option, built like :mod:`tests.tie_shuffle`.
For the length of a ``with store_race_check(cluster):`` block it wraps
every node of ``cluster``:

* Each store a node sends (``H_STORE``, which also carries fetch
  replies, ``H_ADD`` and ``H_PUT_SMALL``) is stamped with the sender's
  epoch: the number of fences (``barrier`` / ``all_store_sync``) it has
  completed when the request is sequenced.
* When the receiver's handler has applied one, the bytes it left in the
  spread array are recorded under that epoch.  A later store to the same
  bytes replaces the record: a remote one, or a local ``store_bytes`` /
  ``store_add`` / ``put`` / ``bulk_get`` (recorded under the node's own
  epoch).
* When a node completes its ``m``-th fence, every record from an epoch
  before ``m`` must still read as recorded, and is then dropped.  If the
  program wrote over one first, :class:`StoreRace` names the node, the
  array, the first byte and the epoch.

A store from a peer already past the local node's fence belongs to the
next epoch, so it stays recorded until the fence after: wiping it
between the two fences is the race this check exists for.  Application
handlers (``register_counted_handler``) are not stores here: they own
their arrays and may read-modify-write them (the sample sort's receive
cursor), so only the runtime's own stores are watched.
"""

import collections
import contextlib

import numpy as np

from repro.am import TYPE_REQUEST
from repro.splitc.runtime import H_ADD, H_PUT_SMALL, H_STORE

STORE_HANDLERS = (H_STORE, H_ADD, H_PUT_SMALL)

#: local store calls: method -> (array name, first byte, bytes) of what it writes
LOCAL_STORES = {
    "store_bytes": lambda rt, name, byte_offset, data: (name, byte_offset, len(data)),
    "store_add": lambda rt, name, elem_offset, values, op="sum": (
        name, elem_offset * rt.local(name).itemsize, len(values) * rt.local(name).itemsize),
    "put": lambda rt, name, start, values: (
        name, start * rt.local(name).itemsize, len(values) * rt.local(name).itemsize),
    "bulk_get": lambda rt, src_name, src_elem, count, dst_name, dst_elem: (
        dst_name, dst_elem * rt.local(dst_name).itemsize, count * rt.local(dst_name).itemsize),
}


class StoreRace(AssertionError):
    """The program wrote over a remote store's bytes before its fence."""


class _Node:
    """One node's epoch and the store bytes it has not yet fenced."""

    def __init__(self, rt):
        self.rt = rt
        self.fences = 0
        #: store bytes found intact at a fence (a check that saw none proved nothing)
        self.checked = 0
        #: array name -> (expected bytes, epoch of each byte or -1)
        self.records = {}

    def record(self, name, first, count, epoch):
        view = self.rt.local(name).view(np.uint8)
        if name not in self.records:
            self.records[name] = (np.zeros_like(view), np.full(len(view), -1, np.int32))
        expected, epochs = self.records[name]
        expected[first:first + count] = view[first:first + count]
        epochs[first:first + count] = epoch

    def fenced(self):
        self.fences += 1
        for name, (expected, epochs) in self.records.items():
            due = (epochs >= 0) & (epochs < self.fences)
            lost = np.flatnonzero(due & (self.rt.local(name).view(np.uint8) != expected))
            if len(lost):
                raise StoreRace(
                    f"node {self.rt.node}: {name!r} byte {lost[0]}, stored in epoch "
                    f"{epochs[lost[0]]}, was overwritten before fence {self.fences}")
            self.checked += int(due.sum())
            epochs[due] = -1


def _stamping(node, stamps, original):
    def sequenced(peer, ptype, handler, *rest):
        if ptype == TYPE_REQUEST and handler in STORE_HANDLERS:
            stamps[node.rt.node, peer.node].append(node.fences)
        return original(peer, ptype, handler, *rest)
    return sequenced


def _recording(node, stamps, handler_id, original):
    def handler(ctx):
        epoch = stamps[ctx.src_node, node.rt.node].popleft()
        yield from original(ctx)
        name = node.rt.heap._names[ctx.args[0]]
        first = ctx.args[1]
        if handler_id == H_ADD:
            first *= node.rt.local(name).itemsize
        node.record(name, first, len(ctx.data), epoch)
    return handler


def _local_store(node, written, original):
    def store(dest, *args, **kwargs):
        yield from original(dest, *args, **kwargs)
        if dest == node.rt.node:
            node.record(*written(node.rt, *args, **kwargs), node.fences)
    return store


def _fence(node, original):
    def fence():
        yield from original()
        node.fenced()
    return fence


@contextlib.contextmanager
def store_race_check(cluster):
    """Fail the run if a plain write wipes a store before its fence;
    yields one record per node (``checked``: store bytes it fenced)."""
    stamps = collections.defaultdict(collections.deque)
    patched, handlers, nodes = [], [], []
    for rt in cluster.runtimes:
        node, am = _Node(rt), rt.am
        nodes.append(node)
        wrappers = [(am, "_sequenced", _stamping(node, stamps, am._sequenced))]
        wrappers += [(rt, method, _local_store(node, written, getattr(rt, method)))
                     for method, written in LOCAL_STORES.items()]
        wrappers += [(rt, method, _fence(node, getattr(rt, method)))
                     for method in ("barrier", "all_store_sync")]
        for obj, attr, wrapper in wrappers:
            setattr(obj, attr, wrapper)
            patched.append((obj, attr))
        for handler_id in STORE_HANDLERS:
            original = am._handlers[handler_id]
            handlers.append((am._handlers, handler_id, original))
            am._handlers[handler_id] = _recording(node, stamps, handler_id, original)
    try:
        yield nodes
    finally:
        for obj, attr in patched:
            delattr(obj, attr)
        for table, handler_id, original in handlers:
            table[handler_id] = original
