"""Per-node global heaps for the Split-C runtime.

Split-C programs allocate *spread* arrays: every node holds its local
slice, and global pointers name ``(node, array, index)``.  Allocation is
SPMD-symmetric, so the registration order — and therefore the small
integer ids the wire protocol uses — is identical on every node.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = ["GlobalHeap", "HeapError"]


class HeapError(Exception):
    """Invalid heap operation."""


class GlobalHeap:
    """The local slice of every spread allocation on one node."""

    def __init__(self, node: int) -> None:
        self.node = node
        self._arrays: Dict[str, np.ndarray] = {}
        self._ids: Dict[str, int] = {}
        self._names: List[str] = []

    def allocate(self, name: str, length: int, dtype=np.uint32) -> np.ndarray:
        """Allocate (or re-allocate) the local slice of spread array ``name``."""
        if name in self._arrays:
            raise HeapError(f"array {name!r} already allocated on node {self.node}")
        array = np.zeros(length, dtype=dtype)
        self._arrays[name] = array
        self._ids[name] = len(self._names)
        self._names.append(name)
        return array

    def array(self, name: str) -> np.ndarray:
        try:
            return self._arrays[name]
        except KeyError:
            raise HeapError(f"array {name!r} not allocated on node {self.node}") from None

    def array_by_id(self, name_id: int) -> np.ndarray:
        if not 0 <= name_id < len(self._names):
            raise HeapError(f"bad array id {name_id} on node {self.node}")
        return self._arrays[self._names[name_id]]

    def name_id(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise HeapError(f"array {name!r} not allocated on node {self.node}") from None

    def write_bytes(self, name_id: int, byte_offset: int, data: bytes) -> None:
        """Raw store into an array's backing bytes (wire-side of a put)."""
        array = self.array_by_id(name_id)
        view = array.view(np.uint8)
        if byte_offset < 0 or byte_offset + len(data) > view.nbytes:
            raise HeapError(
                f"store of {len(data)} bytes at offset {byte_offset} overruns "
                f"array {self._names[name_id]!r} ({view.nbytes} bytes)"
            )
        view[byte_offset : byte_offset + len(data)] = np.frombuffer(data, dtype=np.uint8)

    def read_bytes(self, name_id: int, byte_offset: int, nbytes: int) -> bytes:
        array = self.array_by_id(name_id)
        view = array.view(np.uint8)
        if byte_offset < 0 or byte_offset + nbytes > view.nbytes:
            raise HeapError("read overruns array")
        return view[byte_offset : byte_offset + nbytes].tobytes()

    def combine_bytes(self, name_id: int, elem_offset: int, data: bytes, op: str) -> None:
        """Element-wise combine (wire-side of a reduction fragment)."""
        array = self.array_by_id(name_id)
        incoming = np.frombuffer(data, dtype=array.dtype)
        if elem_offset < 0 or elem_offset + len(incoming) > len(array):
            raise HeapError("combine overruns array")
        view = array[elem_offset : elem_offset + len(incoming)]
        if op == "sum":
            view += incoming
        elif op == "max":
            np.maximum(view, incoming, out=view)
        elif op == "min":
            np.minimum(view, incoming, out=view)
        else:
            raise HeapError(f"unknown reduction op {op!r}")
