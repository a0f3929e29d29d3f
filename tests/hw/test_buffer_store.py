"""The buffer area's backing store: real bytes on lazily zeroed pages.

``BufferArea`` keeps its bytes in one private anonymous memory map, so
building an area reserves address space and the kernel supplies zeroed
pages as buffers are first written.  What a caller can observe must be
what the eagerly zeroed ``bytearray`` gave: zeros before the first
write, views that alias later writes, the same typed errors — plus the
point of the change, resident memory that follows the buffers a run
touches instead of the capacity it reserves.
"""

import gc
import os
import sys

import pytest

from repro import PENTIUM_120, HubNetwork, Simulator
from repro.hw import BufferArea, BufferAreaError
from tests.cold_interpreter import run_cold


def test_fresh_area_reads_as_zeros():
    area = BufferArea(num_buffers=8, buffer_size=4096)
    assert area.total_bytes == 8 * 4096
    assert bytes(area.storage_view) == bytes(8 * 4096)
    for index in range(area.num_buffers):
        assert area.buffer(index).read(4096) == bytes(4096)


def test_view_aliases_later_writes_and_read_copies():
    area = BufferArea(2, 64)
    buf = area.buffer(1)
    window = buf.view(8)
    whole = area.storage_view
    copy = buf.read(8)
    buf.write(b"unet-mem")
    assert bytes(window) == b"unet-mem"
    assert bytes(whole[64:72]) == b"unet-mem"
    assert copy == bytes(8) and isinstance(copy, bytes)
    assert area.storage_view is whole  # one cached export per area


def test_typed_errors_survive_an_exported_view():
    area, other = BufferArea(2, 32), BufferArea(1, 32)
    pinned = area.storage_view  # the export must not turn these into BufferError
    buf = area.alloc()
    with pytest.raises(BufferAreaError, match="overruns"):
        buf.write(b"x" * 33)
    with pytest.raises(BufferAreaError, match="overruns"):
        buf.write(b"xy", at=31)
    with pytest.raises(BufferAreaError, match="read of 33"):
        buf.read(33)
    with pytest.raises(BufferAreaError, match="view of -1"):
        buf.view(-1)
    with pytest.raises(BufferAreaError, match="different area"):
        other.free(buf)
    area.free(buf)
    with pytest.raises(BufferAreaError, match="double free"):
        area.free(buf)
    for index in (-1, 2):
        with pytest.raises(BufferAreaError, match="out of range"):
            area.buffer(index)
    assert bytes(pinned) == bytes(64)  # nothing above wrote a byte


def test_endpoint_teardown_with_an_exported_view_does_not_raise():
    """A closed map with a live export raises ``BufferError``; nothing in
    teardown may close the store under a view the application holds."""
    sim = Simulator()
    net = HubNetwork(sim)
    host = net.add_host("a", PENTIUM_120)
    user = host.create_endpoint(rx_buffers=4)
    pinned = user.endpoint.buffers.storage_view
    user.endpoint.buffers.buffer(0).write(b"still here")
    user.close()
    del user, host, net, sim
    gc.collect()
    assert bytes(pinned[:10]) == b"still here"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork()")
def test_a_forked_child_does_not_write_into_the_parents_area():
    """An anonymous map is ``MAP_SHARED`` unless told otherwise; a pinned
    area belongs to one process."""
    area = BufferArea(1, 64)
    pid = os.fork()
    if pid == 0:
        area.buffer(0).write(b"child")
        os._exit(0)
    assert os.waitpid(pid, 0)[1] == 0
    assert area.buffer(0).read(5) == bytes(5)


_CLUSTER_RSS = """
import resource
from repro.splitc import Cluster  # numpy and the import graph are not the store's
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
cluster = Cluster(128, substrate="atm-clos", collectives="nic")
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
reserved = sum(endpoint.buffers.total_bytes for host in cluster.hosts
               for endpoint in host.backend.endpoints)
print((after - before) / 1024.0, reserved / 2.0 ** 20)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is KiB on Linux only")
def test_building_a_128_node_cluster_keeps_its_buffer_areas_off_the_heap():
    """48 MiB of buffer areas are reserved; the build may make resident
    only what it writes (~7 MB of objects; 56 MB when the store was
    zero-filled eagerly)."""
    grown_mb, reserved_mib = map(float, run_cold(_CLUSTER_RSS).split())
    assert reserved_mib >= 48.0
    assert grown_mb < 30.0, f"building Cluster(128) raised ru_maxrss by {grown_mb:.1f} MB"
