"""Tests for bus/DMA timing, buffer areas, and interrupt coalescing."""

import pytest

from repro.hw import PCI_BUS, SBUS, Buffer, BufferArea, BufferAreaError, DmaEngine, InterruptController, PENTIUM_120
from repro.sim import Simulator

# ---------------------------------------------------------------- bus


def test_bus_transfer_time_grows_with_size():
    assert PCI_BUS.transfer_time(1500) > PCI_BUS.transfer_time(100) > PCI_BUS.transfer_time(0)


def test_bus_burst_quantization():
    # 97 bytes needs two 96-byte PCI bursts; 96 needs one
    one = PCI_BUS.transfer_time(96)
    two = PCI_BUS.transfer_time(97)
    assert two - one > PCI_BUS.per_burst_us * 0.9


def test_sbus_slower_than_pci():
    assert SBUS.transfer_time(1024) > PCI_BUS.transfer_time(1024)


def test_dma_engine_serializes_on_shared_bus():
    sim = Simulator()
    dma = DmaEngine(sim, PCI_BUS)
    done = []

    def xfer(tag, nbytes):
        yield sim.process(dma.transfer(nbytes))
        done.append((tag, sim.now))

    sim.process(xfer("a", 960))
    sim.process(xfer("b", 960))
    sim.run()
    t_single = PCI_BUS.transfer_time(960)
    assert done[0][1] == pytest.approx(t_single)
    assert done[1][1] == pytest.approx(2 * t_single)
    assert dma.transfers == 2
    assert dma.bytes_transferred == 1920


def test_uncontended_dma_inline_is_one_heap_entry():
    sim = Simulator()
    dma = DmaEngine(sim, PCI_BUS)
    done = []

    def firmware():
        yield 1.0
        before = sim.events_processed
        yield from dma.transfer(960)
        done.append((sim.now, sim.events_processed - before))

    sim.process(firmware())
    sim.run()
    assert done == [(1.0 + PCI_BUS.transfer_time(960), 1)]


def test_contended_dma_inline_waits_its_turn():
    sim = Simulator()
    dma = DmaEngine(sim, PCI_BUS)
    done = []

    def firmware(tag, start):
        yield start
        yield from dma.transfer(960)
        done.append((tag, sim.now))

    sim.process(firmware("rx", 0.0))
    sim.process(firmware("tx", 1.0))  # the bus is busy until t_single
    sim.run()
    t_single = PCI_BUS.transfer_time(960)
    assert done == [("rx", t_single), ("tx", t_single + t_single)]
    assert dma.arbiter.in_use == 0


def test_dma_caller_resumes_behind_peers_due_at_the_same_instant():
    """The nested Process this sub-step replaced resumed its caller one
    hop later, behind entries already due at that instant; inlined, it
    keeps that order — and pays the hop only when there is such a peer."""
    for peer_due_at_the_end, expected in ((True, ["peer", "dma"]), (False, ["dma"])):
        sim = Simulator()
        dma = DmaEngine(sim, PCI_BUS)
        order = []

        def firmware():
            yield from dma.transfer(960)
            order.append("dma")

        sim.process(firmware())
        sim.run(until=0.0)  # the transfer's one entry is on the heap...
        if peer_due_at_the_end:  # ...and this one, for the same instant, behind it
            sim.call_in(PCI_BUS.transfer_time(960), order.append, "peer")
        sim.run()
        assert order == expected
        assert sim.events_processed == (5 if peer_due_at_the_end else 3)


# ---------------------------------------------------------------- memory


def test_buffer_area_roundtrip():
    area = BufferArea(num_buffers=4, buffer_size=64)
    buf = area.alloc()
    buf.write(b"hello unet")
    assert buf.read() == b"hello unet"
    assert buf.length == 10
    area.free(buf)
    assert area.free_count == 4


def test_buffer_append_models_cell_reassembly():
    area = BufferArea(2, 128)
    buf = area.alloc()
    buf.append(b"A" * 48)
    buf.append(b"B" * 48)
    assert buf.length == 96
    assert buf.read() == b"A" * 48 + b"B" * 48


def test_buffer_overrun_rejected():
    area = BufferArea(1, 32)
    buf = area.alloc()
    with pytest.raises(BufferAreaError):
        buf.write(b"x" * 33)
    with pytest.raises(BufferAreaError):
        buf.write(b"x", at=32)


def test_buffer_area_exhaustion():
    area = BufferArea(2, 16)
    area.alloc()
    area.alloc()
    assert area.try_alloc() is None
    with pytest.raises(BufferAreaError):
        area.alloc()


def test_double_free_rejected():
    area = BufferArea(1, 16)
    buf = area.alloc()
    area.free(buf)
    with pytest.raises(BufferAreaError):
        area.free(buf)


def test_free_foreign_buffer_rejected():
    a = BufferArea(1, 16)
    b = BufferArea(1, 16)
    buf = a.alloc()
    with pytest.raises(BufferAreaError):
        b.free(buf)


def test_alloc_returns_cleared_buffer():
    area = BufferArea(1, 16)
    buf = area.alloc()
    buf.write(b"junk")
    area.free(buf)
    again = area.alloc()
    assert again.length == 0


def test_direct_buffer_indexing():
    area = BufferArea(3, 8)
    assert area.buffer(2).index == 2
    with pytest.raises(BufferAreaError):
        area.buffer(3)


def test_invalid_area_dimensions():
    with pytest.raises(ValueError):
        BufferArea(0, 16)
    with pytest.raises(ValueError):
        BufferArea(4, 0)


# ---------------------------------------------------------------- interrupts


def test_interrupt_entry_latency_charged():
    sim = Simulator()
    runs = []

    def handler():
        runs.append(sim.now)
        yield sim.timeout(1.0)

    ctl = InterruptController(sim, PENTIUM_120, handler)
    ctl.assert_irq()
    sim.run()
    assert runs == [pytest.approx(PENTIUM_120.interrupt_entry_us)]


def test_interrupts_coalesce_while_pending():
    sim = Simulator()
    runs = []

    def handler():
        runs.append(sim.now)
        yield sim.timeout(1.0)

    ctl = InterruptController(sim, PENTIUM_120, handler)
    ctl.assert_irq()
    ctl.assert_irq()  # still pending: coalesced
    sim.run()
    assert len(runs) == 1


def test_interrupt_during_handler_triggers_rerun():
    sim = Simulator()
    runs = []
    ctl_holder = {}

    def handler():
        runs.append(sim.now)
        if len(runs) == 1:
            # a new frame arrives while the handler is copying
            ctl_holder["ctl"].assert_irq()
        yield sim.timeout(2.0)

    ctl = InterruptController(sim, PENTIUM_120, handler)
    ctl_holder["ctl"] = ctl
    ctl.assert_irq()
    sim.run()
    assert len(runs) == 2  # handler re-ran without a second entry latency
    assert runs[1] - runs[0] == pytest.approx(2.0)


def test_interrupt_after_completion_runs_again():
    sim = Simulator()
    runs = []

    def handler():
        runs.append(sim.now)
        yield sim.timeout(0.5)

    ctl = InterruptController(sim, PENTIUM_120, handler)

    def driver():
        ctl.assert_irq()
        yield sim.timeout(50.0)
        ctl.assert_irq()

    sim.process(driver())
    sim.run()
    assert len(runs) == 2
    assert not ctl.busy
