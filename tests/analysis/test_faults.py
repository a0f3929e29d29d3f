"""Drop and corrupt faults through the perturbation pipeline, end to end."""

import pytest

from repro.am import AmConfig, AmEndpoint
from repro.atm import AtmNetwork
from repro.core import EndpointConfig
from repro.ethernet import HubNetwork
from repro.faults import Corrupt, UniformLoss, attach_pipeline
from repro.sim import RngRegistry, Simulator

CONFIG = EndpointConfig(num_buffers=128, buffer_size=2048,
                        send_queue_depth=64, recv_queue_depth=128)


@pytest.fixture
def pair(two_hosts):
    """Hosts n0 and n1 on a fresh hub (or ATM switch), closed after the test."""
    def build(network=HubNetwork):
        return two_hosts(network(Simulator()), names=("n0", "n1"), config=CONFIG, rx_buffers=48)

    return build


def _am_pair(rig, timeout_us=300.0):
    cfg = AmConfig(retransmit_timeout_us=timeout_us)
    am0, am1 = AmEndpoint(0, rig.ep1, config=cfg), AmEndpoint(1, rig.ep2, config=cfg)
    am0.connect_peer(1, rig.ch1)
    am1.connect_peer(0, rig.ch2)
    return rig.sim, am0, am1


def test_frame_drops_are_deterministic_per_seed(pair):
    def run(seed):
        sim, am0, am1 = _am_pair(pair())
        loss = UniformLoss(0.3)
        attach_pipeline(am1.user.host.backend, [loss], rng=RngRegistry(seed))
        seen = []
        am1.register_handler(1, lambda ctx: seen.append(ctx.args[0]))

        def tx():
            for i in range(20):
                yield from am0.request(1, 1, args=(i,))

        sim.process(tx())
        sim.run(until=5_000_000.0)
        return loss.dropped, seen

    dropped_a, seen_a = run(42)
    dropped_b, seen_b = run(42)
    assert dropped_a == dropped_b > 0
    assert seen_a == seen_b == list(range(20))  # reliability recovered


def test_frame_injector_remove_restores_path(pair):
    sim, am0, am1 = _am_pair(pair())
    loss = UniformLoss(1.0)
    attach_pipeline(am1.user.host.backend, [loss]).restore()
    seen = []
    am1.register_handler(1, lambda ctx: seen.append(True))

    def tx():
        yield from am0.request(1, 1)

    sim.process(tx())
    sim.run(until=100_000.0)
    assert seen == [True]
    assert loss.dropped == 0


def test_invalid_rates_rejected():
    with pytest.raises(ValueError):
        UniformLoss(1.5)
    with pytest.raises(ValueError):
        Corrupt(-0.1)


def test_cell_corruption_detected_by_aal5_crc(pair):
    rig = pair(AtmNetwork)
    sim, ep0, ep1, ch0 = rig.sim, rig.ep1, rig.ep2, rig.ch1
    backend1 = ep1.host.backend
    corrupt = Corrupt(1.0)
    attach_pipeline(backend1, [corrupt])

    def tx():
        yield from ep0.send(ch0, b"m" * 300)

    sim.process(tx())
    sim.run()
    assert corrupt.corrupted > 0
    assert backend1.crc_errors >= 1  # the CRC caught every corrupted PDU
    assert ep1.endpoint.recv_queue.is_empty


def test_cell_loss_recovered_by_am(pair):
    sim, am0, am1 = _am_pair(pair(AtmNetwork), timeout_us=400.0)
    loss = UniformLoss(0.15)
    attach_pipeline(am1.user.host.backend, [loss], rng=RngRegistry(9))
    seen = []
    am1.register_handler(1, lambda ctx: seen.append(ctx.args[0]))

    def tx():
        for i in range(15):
            yield from am0.request(1, 1, args=(i,), data=b"d" * 200)

    sim.process(tx())
    sim.run(until=20_000_000.0)
    assert loss.dropped > 0
    assert seen == list(range(15))


def test_corrupted_frames_dropped_by_nic_crc_and_recovered(pair):
    from repro.am import AmConfig

    sim, am0, am1 = _am_pair(pair())
    am0.config = AmConfig(retransmit_timeout_us=300.0)
    corrupt = Corrupt(0.3)
    attach_pipeline(am1.user.host.backend, [corrupt], rng=RngRegistry(5))
    seen = []
    am1.register_handler(1, lambda ctx: seen.append(ctx.args[0]))

    def tx():
        for i in range(15):
            yield from am0.request(1, 1, args=(i,), data=b"c" * 100)

    sim.process(tx())
    sim.run(until=10_000_000.0)
    nic = am1.user.host.backend.nic
    assert corrupt.corrupted > 0
    assert nic.rx_crc_drops == corrupt.corrupted  # hardware CRC caught all
    assert seen == list(range(15))  # retransmission repaired the stream
