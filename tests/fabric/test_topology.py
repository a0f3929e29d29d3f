"""The declarative topology layer: shortest paths, spreading, shapes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.topology import (
    Topology,
    clos_topology,
    linear_topology,
)


def test_linear_topology_is_the_legacy_chain():
    topo = linear_topology(4)
    assert topo.trunks == [(0, 1), (1, 2), (2, 3)]
    assert topo.path(0, 3) == [0, 1, 2, 3]
    assert topo.hops(0, 3) == 4
    assert topo.hops(2, 2) == 1


def test_clos_topology_has_spines_parallel_paths():
    topo = clos_topology(4, 3)
    assert topo.num_switches == 7
    paths = topo.shortest_paths(0, 1)
    assert len(paths) == 3  # one per spine
    for path in paths:
        assert len(path) == 3
        assert path[0] == 0 and path[-1] == 1
        assert path[1] >= 4  # the middle hop is a spine
    # lexicographic enumeration, deterministic
    assert paths == sorted(paths)


def test_path_key_rotates_across_parallel_spines():
    topo = clos_topology(2, 4)
    chosen = {tuple(topo.path(0, 1, key=key)) for key in range(4)}
    assert len(chosen) == 4  # every spine carries one of the 4 keys
    assert tuple(topo.path(0, 1, key=0)) == tuple(topo.path(0, 1, key=4))


def test_disconnected_switches_are_an_error():
    topo = Topology(3, [(0, 1)])
    with pytest.raises(ValueError):
        topo.shortest_paths(0, 2)


def test_malformed_topologies_are_rejected():
    with pytest.raises(ValueError):
        Topology(2, [(0, 2)])  # missing switch
    with pytest.raises(ValueError):
        Topology(2, [(0, 0)])  # self-trunk
    with pytest.raises(ValueError):
        Topology(2, [(0, 1), (1, 0)])  # duplicate trunk
    with pytest.raises(ValueError):
        clos_topology(0, 2)


@given(leaves=st.integers(min_value=1, max_value=8),
       spines=st.integers(min_value=1, max_value=6),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_clos_paths_are_shortest_and_valid(leaves, spines, data):
    topo = clos_topology(leaves, spines)
    src = data.draw(st.integers(min_value=0, max_value=leaves - 1), label="src")
    dst = data.draw(st.integers(min_value=0, max_value=leaves - 1), label="dst")
    key = data.draw(st.integers(min_value=0, max_value=100), label="key")
    path = topo.path(src, dst, key=key)
    assert path[0] == src and path[-1] == dst
    # every consecutive pair is a real trunk
    for a, b in zip(path, path[1:]):
        assert b in topo.neighbours(a)
    assert len(path) == (1 if src == dst else 3)
