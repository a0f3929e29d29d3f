"""Property-based correctness of the parallel sorts at random scales."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    RadixConfig,
    SampleConfig,
    run_radix_sort,
    run_sample_sort,
    verify_sample_sorted,
    verify_sorted,
)
from repro.apps.radix_sort import initial_keys
from repro.splitc import Cluster


@given(
    nodes=st.integers(2, 4),
    keys=st.integers(30, 200),
    small=st.booleans(),
    seed=st.integers(1, 50),
)
@settings(max_examples=12, deadline=None)
def test_radix_sort_random_scales(nodes, keys, small, seed):
    cfg = RadixConfig(keys_per_node=keys, small_messages=small, radix_bits=8, seed=seed)
    cluster = Cluster(nodes, substrate="fe-switch")
    run_radix_sort(cluster, cfg)
    original = np.concatenate([initial_keys(cfg, i) for i in range(nodes)])
    assert verify_sorted(cluster, expected_multiset=original)


@given(
    nodes=st.integers(2, 4),
    keys=st.integers(40, 250),
    small=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_sample_sort_random_scales(nodes, keys, small):
    cfg = SampleConfig(keys_per_node=keys, small_messages=small)
    cluster = Cluster(nodes, substrate="atm")
    run_sample_sort(cluster, cfg)
    assert verify_sample_sorted(cluster, cfg)


@given(seed=st.integers(1, 1000))
@settings(max_examples=8, deadline=None)
def test_sorts_agree_between_substrates(seed):
    """The same input sorts to the same result on either network."""
    cfg = RadixConfig(keys_per_node=100, small_messages=False, radix_bits=8, seed=seed)
    results = {}
    for substrate in ("fe-switch", "atm"):
        cluster = Cluster(3, substrate=substrate)
        run_radix_sort(cluster, cfg)
        results[substrate] = np.concatenate(
            [rt.local("rx_src").copy() for rt in cluster.runtimes]
        )
    assert np.array_equal(results["fe-switch"], results["atm"])


def test_skewed_key_distribution_sample_sort():
    """Sample sort must survive heavy skew (within its slack factor)."""

    class SkewedConfig(SampleConfig):
        pass

    cfg = SampleConfig(keys_per_node=200, small_messages=False)
    cluster = Cluster(4, substrate="fe-switch")

    # monkeypatch the key generator to a skewed distribution
    import repro.apps.sample_sort as ss

    original = ss.initial_keys

    def skewed(config, node):
        rng = np.random.RandomState(3000 + node)
        # 80% of keys in a narrow band, 20% uniform
        narrow = rng.randint(1000, 2000, size=int(config.keys_per_node * 0.8), dtype=np.uint32)
        wide = rng.randint(0, 2**32, size=config.keys_per_node - len(narrow), dtype=np.uint32)
        return np.concatenate([narrow, wide])

    ss.initial_keys = skewed
    try:
        run_sample_sort(cluster, cfg)
        pieces = []
        for rt in cluster.runtimes:
            received = int(rt.local("ss_count")[0])
            pieces.append(rt.local("ss_recv")[:received].copy())
        merged = np.concatenate(pieces)
        assert np.all(np.diff(merged.astype(np.int64)) >= 0)
        original_keys = np.concatenate([skewed(cfg, i) for i in range(4)])
        assert np.array_equal(np.sort(merged), np.sort(original_keys))
    finally:
        ss.initial_keys = original


@pytest.mark.parametrize("substrate,keys,small", [
    ("fe-switch", 4000, False),
    ("atm", 16384, False),
    ("fe-switch", 4096, True),
])
def test_radix_histogram_gather_survives_an_early_peer(substrate, keys, small):
    """A peer that leaves the previous fence first stores its histogram
    before the local node reaches ``all_gather``; nothing may wipe it.
    At these three 2-node points a local write to the gather array
    between the fence and the call loses that histogram, and the sort
    comes out wrong."""
    cfg = RadixConfig(keys_per_node=keys, small_messages=small)
    cluster = Cluster(2, substrate=substrate)
    run_radix_sort(cluster, cfg)
    original = np.concatenate([initial_keys(cfg, i) for i in range(2)])
    assert verify_sorted(cluster, expected_multiset=original)
