"""Unit tests of the perturbation models and pipeline attach/restore."""

import pytest

from repro.faults import (
    Corrupt,
    DelayJitter,
    Duplicate,
    FramePipeline,
    GilbertElliott,
    LinkFlap,
    NicStall,
    PerturbationContext,
    Reorder,
    UniformLoss,
    attach_pipeline,
)
from repro.sim import RngRegistry, Simulator


def attached(stage, seed=7):
    ctx = PerturbationContext(Simulator(), RngRegistry(seed), corrupter=None)
    stage.attach(ctx)
    return stage


def drive(stage, n=500, now=0.0):
    """Feed ``n`` numbered PDUs; return the (pdu, delay) emissions."""
    out = []
    for i in range(n):
        stage.process(i, now + i * 10.0, lambda p, d=0.0: out.append((p, d)))
    return out


# --------------------------------------------------------------- models
def test_uniform_loss_drops_expected_fraction():
    stage = attached(UniformLoss(0.3))
    out = drive(stage, 2000)
    assert stage.dropped == 2000 - len(out)
    assert 0.2 < stage.dropped / 2000 < 0.4


def test_gilbert_elliott_loss_is_bursty():
    stage = attached(GilbertElliott(p_good_to_bad=0.05, p_bad_to_good=0.3,
                                    loss_good=0.0, loss_bad=1.0))
    delivered = {p for p, _d in drive(stage, 2000)}
    assert stage.dropped > 0 and stage.bursts > 0
    # loss only happens in the bad state, so drops must cluster: there
    # are far fewer distinct bursts than dropped packets would imply
    # under independent loss at the same overall rate
    runs = 0
    in_run = False
    for i in range(2000):
        if i not in delivered and not in_run:
            runs, in_run = runs + 1, True
        elif i in delivered:
            in_run = False
    assert runs < stage.dropped  # mean burst length > 1
    # with loss_bad=1.0 every loss run lies inside one bad period
    assert runs <= stage.bursts


def test_gilbert_elliott_deterministic_per_seed():
    a = drive(attached(GilbertElliott(loss_bad=0.9), seed=11), 300)
    b = drive(attached(GilbertElliott(loss_bad=0.9), seed=11), 300)
    c = drive(attached(GilbertElliott(loss_bad=0.9), seed=12), 300)
    assert a == b
    assert a != c


def test_reorder_defers_a_fraction():
    stage = attached(Reorder(rate=0.2, delay_us=(50.0, 100.0)))
    out = drive(stage, 1000)
    assert len(out) == 1000  # nothing lost
    delayed = [d for _p, d in out if d > 0.0]
    assert len(delayed) == stage.reordered > 0
    assert all(50.0 <= d <= 100.0 for d in delayed)


def test_delay_jitter_bounds():
    stage = attached(DelayJitter(min_us=5.0, max_us=25.0))
    out = drive(stage, 200)
    assert len(out) == 200
    assert all(5.0 <= d <= 25.0 for _p, d in out)


def test_duplicate_emits_extra_copies():
    stage = attached(Duplicate(rate=0.5, copies=2, delay_us=3.0))
    out = drive(stage, 400)
    assert len(out) == 400 + 2 * stage.duplicated
    assert stage.duplicated > 0


def test_link_flap_periodic_windows():
    stage = attached(LinkFlap(up_us=100.0, down_us=50.0))
    kept = []
    stage.process("up", 10.0, lambda p, d=0.0: kept.append(p))
    stage.process("down", 120.0, lambda p, d=0.0: kept.append(p))
    stage.process("up-again", 160.0, lambda p, d=0.0: kept.append(p))
    assert kept == ["up", "up-again"]
    assert stage.dropped == 1


def test_link_flap_explicit_schedule():
    stage = attached(LinkFlap(schedule=[(100.0, 200.0), (400.0, 450.0)]))
    assert not stage.is_down(50.0)
    assert stage.is_down(150.0)
    assert not stage.is_down(300.0)
    assert stage.is_down(425.0)


def test_nic_stall_releases_in_order_at_window_end():
    stage = attached(NicStall(period_us=1000.0, stall_us=100.0))
    out = []
    stage.process("a", 10.0, lambda p, d=0.0: out.append((p, d)))
    stage.process("b", 40.0, lambda p, d=0.0: out.append((p, d)))
    stage.process("c", 500.0, lambda p, d=0.0: out.append((p, d)))
    # a and b are stalled to t=100 (delays 90 and 60); c passes through
    assert out == [("a", 90.0), ("b", 60.0), ("c", 0.0)]
    assert stage.stalled == 2


@pytest.mark.parametrize("bad", [
    lambda: UniformLoss(1.5),
    lambda: GilbertElliott(p_good_to_bad=-0.1),
    lambda: Corrupt(2.0),
    lambda: Reorder(rate=0.1, delay_us=(0.0, 0.0)),
    lambda: DelayJitter(min_us=5.0, max_us=1.0),
    lambda: Duplicate(copies=0),
    lambda: LinkFlap(up_us=0.0),
    lambda: NicStall(period_us=100.0, stall_us=100.0),
])
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ValueError):
        bad()


# ----------------------------------------------------- pipeline attach
def build_fe_pair():
    from repro.core import EndpointConfig
    from repro.ethernet import SwitchedNetwork
    from repro.hw import PENTIUM_120

    sim = Simulator()
    net = SwitchedNetwork(sim)
    h0 = net.add_host("n0", PENTIUM_120)
    h1 = net.add_host("n1", PENTIUM_120)
    config = EndpointConfig(num_buffers=64, buffer_size=2048,
                            send_queue_depth=32, recv_queue_depth=64)
    ep0 = h0.create_endpoint(config=config, rx_buffers=24)
    ep1 = h1.create_endpoint(config=config, rx_buffers=24)
    ch0, ch1 = net.connect(ep0, ep1)
    return sim, h0, h1, ep0, ep1, ch0, ch1


def test_pipeline_attach_and_restore_roundtrip():
    _sim, _h0, h1, *_rest = build_fe_pair()
    original = h1.backend.nic._on_frame
    pipeline = FramePipeline(h1.backend, [UniformLoss(0.5)])
    assert h1.backend.nic._on_frame != original
    assert pipeline.attached
    pipeline.restore()
    assert h1.backend.nic._on_frame == original
    assert not pipeline.attached
    pipeline.restore()  # idempotent
    assert h1.backend.nic._on_frame == original


def test_pipeline_context_manager_restores_on_exit():
    _sim, _h0, h1, *_rest = build_fe_pair()
    original = h1.backend.nic._on_frame
    with FramePipeline(h1.backend, [UniformLoss(1.0)]) as pipeline:
        assert h1.backend.nic._on_frame != original
    assert h1.backend.nic._on_frame == original
    assert pipeline.stats()["injected"] == 0


def test_pipeline_drops_frames_end_to_end():
    sim, h0, h1, ep0, ep1, ch0, ch1 = build_fe_pair()
    received = []

    def rx():
        while True:
            message = yield from ep1.recv()
            received.append(message.data)

    sim.process(rx())

    def tx():
        for i in range(20):
            yield from ep0.send(ch0, bytes([i]) * 64)

    with FramePipeline(h1.backend, [UniformLoss(0.5)], rng=RngRegistry(3)) as pipeline:
        sim.process(tx())
        sim.run(until=100_000.0)
    assert pipeline.stats()["injected"] == 20
    dropped = pipeline.stages[0].dropped
    assert dropped > 0
    assert len(received) == 20 - dropped


def test_attach_pipeline_picks_the_substrate():
    _sim, _h0, h1, *_rest = build_fe_pair()
    pipeline = attach_pipeline(h1.backend, [UniformLoss(0.1)])
    assert isinstance(pipeline, FramePipeline)
    pipeline.restore()

    from repro.atm import AtmNetwork
    from repro.hw import PENTIUM_120

    sim = Simulator()
    atm = AtmNetwork(sim)
    host = atm.add_host("a0", PENTIUM_120)
    original = host.backend.on_cell
    cell_pipeline = attach_pipeline(host.backend, [UniformLoss(0.1)])
    assert host.backend.on_cell != original
    cell_pipeline.restore()
    assert host.backend.on_cell == original


def test_rx_fault_hooks_cover_every_nic():
    _sim, _h0, h1, *_rest = build_fe_pair()
    hooks = h1.backend.rx_fault_hooks()
    assert [owner for owner, _attr in hooks] == list(h1.backend.nics)
    assert all(attr == "_on_frame" for _owner, attr in hooks)
