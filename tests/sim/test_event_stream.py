"""One event stream per NI: who records onto ``backend.trace``, and what
an unwatched run pays for it (nothing)."""

import pytest

from repro import networks
from repro.am import AmEndpoint
from repro.sim import Simulator, trace


def _ping_pong(two_hosts, substrate):
    """Two connected AM endpoints, the second echoing, on a fresh
    two-host ``substrate`` rig; returns the rig and both endpoints."""
    rig = two_hosts(networks.get(substrate).build(Simulator()), names=("n0", "n1"))
    am0, am1 = AmEndpoint(0, rig.ep1), AmEndpoint(1, rig.ep2)
    am0.connect_peer(1, rig.ch1)
    am1.connect_peer(0, rig.ch2)
    am1.register_handler(1, lambda ctx: ctx.reply(args=(ctx.args[0] + 1,)))
    return rig, am0, am1


def _run(rig, am0, rounds=8):
    """``rounds`` rpcs from node 0, run to completion."""

    def client():
        for i in range(rounds):
            args, _data = yield from am0.rpc(1, 1, args=(i,), data=bytes(40))
            assert args[0] == i + 1

    rig.sim.run_until_complete(rig.sim.process(client()))


@pytest.mark.parametrize("substrate", ["atm", "fe-hub"])
def test_an_unwatched_run_builds_no_record(monkeypatch, two_hosts, substrate):
    built = []

    class Counted(trace.TraceRecord):
        def __init__(self, *args, **kwargs):
            built.append(args[2])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(trace, "TraceRecord", Counted)
    rig, am0, _am1 = _ping_pong(two_hosts, substrate)
    _run(rig, am0)
    assert built == []
    # the other direction: one subscriber, and every layer builds records
    rig, am0, _am1 = _ping_pong(two_hosts, substrate)
    rig.ep2.backend.trace.subscribe(lambda record: None)
    _run(rig, am0)
    assert {"am", "endpoint"} < set(built)


@pytest.mark.parametrize("substrate", ["fe-hub", "fe-beowulf", "atm"])
def test_one_stream_carries_every_layer_of_the_host(two_hosts, substrate):
    rig, am0, am1 = _ping_pong(two_hosts, substrate)
    seen = []
    am1.trace.subscribe(seen.append)
    assert am1.trace is rig.ep2.backend.trace is rig.ep2.endpoint.trace
    _run(rig, am0, rounds=2)
    categories = {record.category for record in seen}
    assert {"am", "endpoint"} < categories
    assert any(c.endswith(".rx") for c in categories)      # the NI's own steps
    if substrate.startswith("fe"):
        assert "nic" in categories                          # its DC21140(s)
    kinds = [record.step for record in seen if record.category == "am"]
    assert {"dispatch", "ack_tx", "ack_rx", "tx"} <= set(kinds)
    assert all(record.info["node"] == 1 for record in seen if record.category == "am")
    delivers = [record for record in seen if record.step == "deliver"]
    assert len(delivers) == 2 and all(r.duration == 0.0 for r in delivers)
