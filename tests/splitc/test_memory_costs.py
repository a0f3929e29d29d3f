"""Unit tests for the Split-C heap and kernel cost models."""

import numpy as np
import pytest

from repro.hw import PENTIUM_120, SPARCSTATION_20
from repro.splitc import DEFAULT_COSTS, GlobalHeap, HeapError


# ---------------------------------------------------------------- heap


def test_allocate_and_access():
    heap = GlobalHeap(0)
    arr = heap.allocate("keys", 10, np.uint32)
    assert len(arr) == 10
    assert heap.array("keys") is arr
    assert heap.array_by_id(heap.name_id("keys")) is arr


def test_symmetric_ids_follow_allocation_order():
    h0, h1 = GlobalHeap(0), GlobalHeap(1)
    for h in (h0, h1):
        h.allocate("a", 4)
        h.allocate("b", 4)
    assert h0.name_id("b") == h1.name_id("b") == 1


def test_double_allocate_rejected():
    heap = GlobalHeap(0)
    heap.allocate("x", 4)
    with pytest.raises(HeapError):
        heap.allocate("x", 4)


def test_unknown_array_rejected():
    heap = GlobalHeap(0)
    with pytest.raises(HeapError):
        heap.array("nope")
    with pytest.raises(HeapError):
        heap.array_by_id(3)


def test_write_read_bytes_roundtrip():
    heap = GlobalHeap(0)
    arr = heap.allocate("data", 8, np.uint32)
    values = np.arange(8, dtype=np.uint32)
    heap.write_bytes(0, 0, values.tobytes())
    assert np.array_equal(arr, values)
    assert heap.read_bytes(0, 4, 8) == values[1:3].tobytes()


def test_write_bytes_bounds_checked():
    heap = GlobalHeap(0)
    heap.allocate("data", 2, np.uint32)
    with pytest.raises(HeapError):
        heap.write_bytes(0, 6, b"abcd")  # 6+4 > 8 bytes
    with pytest.raises(HeapError):
        heap.read_bytes(0, 0, 9)


def test_add_bytes_accumulates():
    heap = GlobalHeap(0)
    arr = heap.allocate("hist", 4, np.uint64)
    arr[:] = [1, 2, 3, 4]
    heap.combine_bytes(0, 0, np.array([10, 10, 10, 10], dtype=np.uint64).tobytes(), op="sum")
    assert list(arr) == [11, 12, 13, 14]


def test_add_bytes_with_offset():
    heap = GlobalHeap(0)
    arr = heap.allocate("hist", 4, np.uint64)
    heap.combine_bytes(0, 2, np.array([5], dtype=np.uint64).tobytes(), op="sum")
    assert list(arr) == [0, 0, 5, 0]
    with pytest.raises(HeapError):
        heap.combine_bytes(0, 4, np.array([5], dtype=np.uint64).tobytes(), op="sum")


# ---------------------------------------------------------------- costs


def test_radix_pass_ops_scale_with_keys():
    assert DEFAULT_COSTS.radix_pass_ops(2000, 256) > DEFAULT_COSTS.radix_pass_ops(1000, 256)


def test_local_sort_is_linear_radix_style():
    # radix local sort: cost per key is constant in n
    per_key_small = DEFAULT_COSTS.local_sort_ops(1000) / 1000
    per_key_large = DEFAULT_COSTS.local_sort_ops(100_000) / 100_000
    assert per_key_small == pytest.approx(per_key_large)


def test_matmul_flops():
    assert DEFAULT_COSTS.matmul_flops(16, 16, 16) == 2 * 16**3


def test_partition_ops_grow_with_splitters():
    assert DEFAULT_COSTS.partition_ops(1000, 15) > DEFAULT_COSTS.partition_ops(1000, 3)


def test_paper_machine_ordering_for_kernels():
    # the Section 5.2 claims as kernel-level facts
    sort_ops = DEFAULT_COSTS.local_sort_ops(100_000)
    assert PENTIUM_120.int_op_time(sort_ops) < SPARCSTATION_20.int_op_time(sort_ops)
    mm_flops = DEFAULT_COSTS.matmul_flops(128, 128, 128)
    assert SPARCSTATION_20.flop_time(mm_flops) < PENTIUM_120.flop_time(mm_flops)
