"""Unit + property tests for the demux table and its reverse index.

One flat dict routes every arriving tag; the reverse index (endpoint ->
its tags) and the per-tenant row counts scale teardown to churning
tenant populations.  Over any sequence of registrations, per-tag
removals, endpoint teardowns, and lookups the table must never misroute
a tag, leak a slot (``len`` / per-tenant accounting out of sync with the
live rows), or double-free (a second teardown finding rows the first
should have removed).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Endpoint, EndpointConfig
from repro.core.endpoint import DROP_COUNTERS
from repro.core.mux import DemuxTable
from repro.sim import Simulator

_TINY = EndpointConfig(num_buffers=2, buffer_size=32,
                       send_queue_depth=2, recv_queue_depth=2)


def _endpoints(count, tenants=5):
    sim = Simulator()
    return [Endpoint(sim, i, _TINY, owner=f"ep{i}",
                     tenant=f"t{i % tenants:02d}", qos="best_effort")
            for i in range(count)]


# ------------------------------------------------------------------ unit


def test_register_lookup_and_len():
    ep0, ep1 = _endpoints(2)
    demux = DemuxTable()
    demux.register(("vci", 7), ep0, 1)
    demux.register(("vci", 9), ep1, 2)
    assert len(demux) == 2
    assert demux.lookup(("vci", 7)) == (ep0, 1)
    assert demux.lookup(("vci", 9)) == (ep1, 2)
    assert demux.unknown_tag_drops == 0


def test_duplicate_tag_is_refused():
    (ep,) = _endpoints(1)
    demux = DemuxTable()
    demux.register(0xBEEF, ep, 0)
    with pytest.raises(KeyError):
        demux.register(0xBEEF, ep, 1)
    assert len(demux) == 1


def test_unknown_tag_counts_and_fires_observer():
    demux = DemuxTable()
    seen = []
    demux.observer = seen.append
    assert demux.lookup("nobody") is None
    assert demux.unknown_tag_drops == 1
    assert seen == ["nobody"]


def test_unregister_endpoint_touches_only_its_own_rows():
    ep0, ep1 = _endpoints(2)
    demux = DemuxTable()
    for tag in range(8):
        demux.register(tag, ep0 if tag % 2 else ep1, tag)
    assert demux.unregister_endpoint(ep0) == 4
    assert len(demux) == 4
    assert demux.endpoint_rows(ep0) == 0
    assert demux.endpoint_rows(ep1) == 4
    for tag in range(0, 8, 2):  # ep1's rows survive and still route
        assert demux.lookup(tag) == (ep1, tag)
    # double-free: a second teardown finds nothing to remove
    assert demux.unregister_endpoint(ep0) == 0
    assert len(demux) == 4


def test_tenant_rows_accounting_tracks_churn():
    eps = _endpoints(4, tenants=2)  # t00, t01, t00, t01
    demux = DemuxTable()
    for i, ep in enumerate(eps):
        demux.register(i, ep, 0)
        demux.register(100 + i, ep, 1)
    assert demux.tenant_rows() == {"t00": 4, "t01": 4}
    demux.unregister(0)
    assert demux.tenant_rows() == {"t00": 3, "t01": 4}
    demux.unregister_endpoint(eps[1])
    assert demux.tenant_rows() == {"t00": 3, "t01": 2}
    for ep in eps:
        demux.unregister_endpoint(ep)
    assert demux.tenant_rows() == {}
    assert len(demux) == 0


def test_drop_stats_speaks_the_shared_vocabulary():
    table = DemuxTable()
    table.lookup("miss")
    stats = table.drop_stats()
    assert set(stats) == set(DROP_COUNTERS)
    assert stats["unknown_tag_drops"] == 1
    assert all(v == 0 for k, v in stats.items() if k != "unknown_tag_drops")


# ------------------------------------------------------------ properties

_OPS = st.lists(
    st.tuples(st.sampled_from(["reg", "unreg", "teardown", "lookup"]),
              st.integers(min_value=0, max_value=11),     # endpoint index
              st.integers(min_value=0, max_value=40)),    # tag
    max_size=120)


@settings(max_examples=60, deadline=None)
@given(_OPS)
def test_sharded_demux_matches_the_flat_model(ops):
    """Any op sequence: the table routes, counts, and accounts exactly
    like a plain dict model — no misroute, no leak, no double-free."""
    eps = _endpoints(12, tenants=4)
    demux = DemuxTable()
    model = {}
    misses = 0
    for op, idx, tag in ops:
        ep = eps[idx]
        if op == "reg":
            if tag in model:
                with pytest.raises(KeyError):
                    demux.register(tag, ep, idx)
            else:
                demux.register(tag, ep, idx)
                model[tag] = (ep, idx)
        elif op == "unreg":
            demux.unregister(tag)
            model.pop(tag, None)
        elif op == "teardown":
            expected = sum(1 for e, _c in model.values() if e is ep)
            assert demux.unregister_endpoint(ep) == expected
            model = {t: row for t, row in model.items() if row[0] is not ep}
        else:  # lookup
            entry = demux.lookup(tag)
            if tag in model:
                assert entry == model[tag]  # never misroutes
            else:
                assert entry is None
                misses += 1
    # no leaked or phantom slots anywhere in the accounting
    assert len(demux) == len(model)
    assert demux.unknown_tag_drops == misses
    expected_tenants = {}
    for ep, _ch in model.values():
        expected_tenants[ep.tenant] = expected_tenants.get(ep.tenant, 0) + 1
    assert demux.tenant_rows() == expected_tenants
    for ep in eps:
        assert demux.endpoint_rows(ep) == sum(
            1 for e, _c in model.values() if e is ep)
    # full teardown drains the table; a second pass is a no-op
    for ep in eps:
        demux.unregister_endpoint(ep)
    assert len(demux) == 0
    assert demux.tenant_rows() == {}
    assert all(demux.unregister_endpoint(ep) == 0 for ep in eps)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 60)),
                min_size=1, max_size=80))
def test_sharded_and_flat_tables_agree(pairs):
    """Differential check of reverse-index teardown against a scan of
    every row, the way the table tore endpoints down before it had an
    index."""
    eps = _endpoints(8, tenants=3)
    demux, rows = DemuxTable(), {}
    for idx, tag in pairs:
        if tag not in rows:
            demux.register(tag, eps[idx], idx)
            rows[tag] = (eps[idx], idx)
    for _idx, tag in pairs:
        assert demux.lookup(tag) == rows[tag]
    for ep in eps:
        dead = [tag for tag, (owner, _ch) in rows.items() if owner is ep]
        assert demux.unregister_endpoint(ep) == len(dead)
        for tag in dead:
            del rows[tag]
        assert len(demux) == len(rows)
        assert all(tag not in demux for tag in dead)
