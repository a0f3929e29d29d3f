"""Sequence-space wrap-around in live Active Messages traffic."""

import pytest

from repro.am import SEQ_MOD, AmEndpoint
from repro.core import EndpointConfig
from repro.ethernet import SwitchedNetwork
from repro.sim import Simulator

CONFIG = EndpointConfig(num_buffers=128, buffer_size=2048,
                        send_queue_depth=64, recv_queue_depth=128)


@pytest.fixture
def pair(two_hosts):
    """Two AM endpoints on a fresh switch, closed after the test."""
    def build(start_seq):
        rig = two_hosts(SwitchedNetwork(Simulator()), names=("n0", "n1"),
                        config=CONFIG, rx_buffers=48)
        am0, am1 = AmEndpoint(0, rig.ep1), AmEndpoint(1, rig.ep2)
        am0.connect_peer(1, rig.ch1)
        am1.connect_peer(0, rig.ch2)
        # place both sides of the a->b stream just below the wrap point
        am0._peers_by_node[1].next_seq = start_seq
        am1._peers_by_node[0].expected_seq = start_seq
        return rig.sim, am0, am1

    return build


def test_stream_across_wrap_point(pair):
    sim, am0, am1 = pair(SEQ_MOD - 5)
    seen = []
    am1.register_handler(1, lambda ctx: seen.append(ctx.args[0]))

    def tx():
        for i in range(20):  # crosses 65535 -> 0
            yield from am0.request(1, 1, args=(i,))

    sim.process(tx())
    sim.run()
    assert seen == list(range(20))
    assert am0._peers_by_node[1].next_seq == (SEQ_MOD - 5 + 20) % SEQ_MOD
    assert not am0._peers_by_node[1].unacked  # acks crossed the wrap too


def test_rpc_across_wrap_point(pair):
    sim, am0, am1 = pair(SEQ_MOD - 2)
    am1.register_handler(2, lambda ctx: ctx.reply(args=(ctx.args[0] * 2,)))

    def caller():
        results = []
        for i in range(6):
            args, _data = yield from am0.rpc(1, 2, args=(i,))
            results.append(args[0])
        return results

    assert sim.run_until_complete(sim.process(caller())) == [0, 2, 4, 6, 8, 10]


def test_retransmission_across_wrap_point(pair):
    from repro.am import AmConfig
    from repro.faults import UniformLoss, attach_pipeline
    from repro.sim import RngRegistry

    sim, am0, am1 = pair(SEQ_MOD - 3)
    am0.config = AmConfig(retransmit_timeout_us=300.0)
    seen = []
    am1.register_handler(1, lambda ctx: seen.append(ctx.args[0]))
    loss = UniformLoss(0.3)
    attach_pipeline(am1.user.host.backend, [loss], rng=RngRegistry(21))

    def tx():
        for i in range(12):
            yield from am0.request(1, 1, args=(i,))

    sim.process(tx())
    sim.run(until=5_000_000.0)
    assert loss.dropped > 0
    assert seen == list(range(12))


def test_gbn_under_bursty_loss_across_wrap_point(pair):
    """Gilbert-Elliott burst losses straddling 65535 -> 0 must not
    confuse go-back-N: seq_lt comparisons and cumulative acks both wrap."""
    from repro.am import AmConfig
    from repro.faults import GilbertElliott, attach_pipeline
    from repro.sim import RngRegistry

    sim, am0, am1 = pair(SEQ_MOD - 8)
    am0.config = AmConfig.adaptive()
    am1.config = AmConfig.adaptive()
    seen = []
    am1.register_handler(1, lambda ctx: seen.append(ctx.args[0]))
    stage = GilbertElliott(p_good_to_bad=0.1, p_bad_to_good=0.3, loss_bad=0.9)
    pipeline = attach_pipeline(am1.user.host.backend, [stage], rng=RngRegistry(33))

    def tx():
        for i in range(40):  # window crosses the wrap several sends in
            yield from am0.request(1, 1, args=(i,))

    sim.process(tx())
    sim.run(until=10_000_000.0)
    pipeline.restore()
    assert stage.dropped > 0 and stage.bursts > 0
    assert seen == list(range(40))  # exactly-once, in order, despite bursts
    assert am0._peers_by_node[1].next_seq == (SEQ_MOD - 8 + 40) % SEQ_MOD
    assert not am0._peers_by_node[1].unacked


def test_gbn_under_reordering_near_wrap_point(pair):
    """Deferred deliveries around the wrap look like "old" sequence
    numbers to naive comparisons; GBN must still dispatch in order."""
    from repro.am import AmConfig
    from repro.faults import Reorder, attach_pipeline
    from repro.sim import RngRegistry

    sim, am0, am1 = pair(SEQ_MOD - 6)
    am0.config = AmConfig.adaptive()
    am1.config = AmConfig.adaptive()
    seen = []
    am1.register_handler(1, lambda ctx: seen.append(ctx.args[0]))
    stage = Reorder(rate=0.25, delay_us=(30.0, 300.0))
    pipeline = attach_pipeline(am1.user.host.backend, [stage], rng=RngRegistry(17))

    def tx():
        for i in range(30):
            yield from am0.request(1, 1, args=(i,))

    sim.process(tx())
    sim.run(until=10_000_000.0)
    pipeline.restore()
    assert stage.reordered > 0
    assert seen == list(range(30))
    assert not am0._peers_by_node[1].unacked
