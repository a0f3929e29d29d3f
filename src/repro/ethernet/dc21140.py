"""The DECchip 21140 Fast Ethernet controller.

A straightforward bus-master NIC (Section 4.3): circular transmit and
receive descriptor rings live in host memory; each descriptor points at
up to two buffers.  The kernel pushes send descriptors and issues a
*transmit poll demand*; the chip then DMAs the chained buffers and puts
the frame on the wire.  Received frames are DMAed into fixed kernel
buffers in FIFO order and an interrupt is raised.  The chip assumes a
single operating-system agent — which is exactly why U-Net/FE must live
in the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..hw.bus import PCI_BUS, BusModel, DmaEngine
from ..sim import BoundedRing, Simulator, Store, TraceRecorder
from .frames import COLLECTIVE_PORT, ETH_HEADER_SIZE, EthernetFrame, MacAddress
from .medium import Attachment, ExcessiveCollisions

__all__ = ["Dc21140", "NicTimings", "TxRingDescriptor", "RxRingBuffer"]


@dataclass
class NicTimings:
    """DC21140 internal costs (microseconds)."""

    #: response to a poll demand: descriptor fetch from host memory
    tx_descriptor_fetch_us: float = 3.2
    #: FIFO fill threshold before transmission starts
    tx_fifo_threshold_us: float = 1.6
    #: end-of-frame to DMA start on receive
    rx_dma_start_us: float = 2.1
    #: DMA completion to interrupt assertion; together with the CPU's
    #: interrupt-entry cost this reproduces the paper's "roughly 2 us"
    #: between frame data in memory and the handler running
    rx_interrupt_delay_us: float = 1.44
    #: hypothetical on-NIC collective engine: process one collective
    #: packet on the controller (no bus crossing, no interrupt)
    collective_op_us: float = 2.0


@dataclass
class TxRingDescriptor:
    """One entry of the transmit descriptor ring."""

    frame: EthernetFrame
    #: U-Net bookkeeping: the user-area buffer indices to reclaim and the
    #: send descriptor to mark completed once the chip is done with them
    on_complete: Optional[Callable[[], None]] = None
    completed: bool = False


@dataclass
class RxRingBuffer:
    """One fixed kernel receive buffer (filled in FIFO order)."""

    frame: Optional[EthernetFrame] = None


class Dc21140:
    """One DC21140 chip wired to an attachment (hub tap or switch link)."""

    def __init__(
        self,
        sim: Simulator,
        mac: MacAddress,
        bus: BusModel = PCI_BUS,
        timings: Optional[NicTimings] = None,
        tx_ring_size: int = 64,
        rx_ring_size: int = 64,
        name: str = "dc21140",
    ) -> None:
        self.sim = sim
        self.mac = mac
        self.name = name
        self.timings = timings or NicTimings()
        self.dma = DmaEngine(sim, bus, name=f"{name}.dma")
        self.attachment: Optional[Attachment] = None
        #: host-memory transmit ring (kernel pushes, chip pops)
        self.tx_ring: BoundedRing[TxRingDescriptor] = BoundedRing(tx_ring_size, name=f"{name}.txring")
        #: filled receive buffers awaiting the kernel's interrupt handler
        self.rx_ring: BoundedRing[RxRingBuffer] = BoundedRing(rx_ring_size, name=f"{name}.rxring")
        self.rx_ring_capacity = rx_ring_size
        #: kernel installs this to be interrupted on receive
        self.interrupt: Optional[Callable[[], None]] = None
        #: collective engine handler: frames on COLLECTIVE_PORT are
        #: consumed here on the controller — no ring, no interrupt
        self.collective_rx: Optional[Callable[[bytes], None]] = None
        #: kernel installs this to learn of freed TX ring slots
        self.on_tx_space: Optional[Callable[[], None]] = None
        self._poll_demand: Store[bool] = Store(sim, name=f"{name}.polldemand")
        self._tx_running = False
        #: staging between the DMA engine and the wire: the chip prefetches
        #: the next frame into its FIFO while the current one transmits
        self._tx_fifo: Store[TxRingDescriptor] = Store(sim, capacity=2, name=f"{name}.txfifo")
        self.frames_sent = 0
        self.frames_received = 0
        self.collective_frames_received = 0  # consumed by the collective engine, never the host ring
        self.rx_overflow_drops = 0
        self.rx_crc_drops = 0
        self.tx_collision_drops = 0
        #: optional step tracing (the end-to-end journey tracer uses it)
        self.trace = TraceRecorder(enabled=False)
        sim.process(self._tx_engine(), name=f"{name}.tx")
        sim.process(self._tx_wire(), name=f"{name}.txwire")

    def _span(self, label: str, start: float) -> None:
        self.trace.record(start, self.sim.now - start, "nic", f"{self.name}: {label}")

    def attach(self, attachment: Attachment) -> None:
        self.attachment = attachment
        # late-bound so fault injectors can interpose on _on_frame
        attachment.set_receiver(lambda frame: self._on_frame(frame))

    # ------------------------------------------------------------- transmit
    def poll_demand(self) -> None:
        """Kernel side: tell the chip to scan its transmit ring."""
        if not self._tx_running:
            self._poll_demand.try_put(True)

    def _tx_engine(self):
        t = self.timings
        while True:
            yield self._poll_demand.get()
            self._tx_running = True
            while True:
                was_full = self.tx_ring.is_full
                descriptor = self.tx_ring.try_pop()
                if descriptor is None:
                    break
                if was_full and self.on_tx_space is not None:
                    self.on_tx_space()
                t0 = self.sim.now
                yield t.tx_descriptor_fetch_us
                self._span("fetch TX descriptor", t0)
                # DMA the kernel header buffer + the user data buffer
                frame_bytes = ETH_HEADER_SIZE + len(descriptor.frame.payload)
                t0 = self.sim.now
                yield from self.dma.transfer(frame_bytes)
                self._span("DMA frame into FIFO", t0)
                yield t.tx_fifo_threshold_us
                # the frame now sits in the chip FIFO: the host buffers are
                # no longer needed even though the wire may lag behind
                descriptor.completed = True
                if descriptor.on_complete is not None:
                    descriptor.on_complete()
                yield self._tx_fifo.put(descriptor)
            self._tx_running = False
            # a poll demand issued while running is honoured by the loop
            # above; drain any stale doorbells
            while self._poll_demand.try_get() is not None:
                pass

    def _tx_wire(self):
        while True:
            descriptor = yield self._tx_fifo.get()
            try:
                t0 = self.sim.now
                yield from self.attachment.transmit(descriptor.frame)
                if self.sim.peek() <= self.sim.now:
                    yield 0.0  # queue behind same-instant peers (see DmaEngine.transfer)
                self._span("serialize frame onto the wire", t0)
                self.frames_sent += 1
            except ExcessiveCollisions:
                self.tx_collision_drops += 1

    # -------------------------------------------------------------- receive
    def _on_frame(self, frame: EthernetFrame) -> None:
        if frame.dst_mac != self.mac:
            return  # hub broadcast not addressed to us: filtered in hardware
        if frame.corrupted:
            # the chip's CRC checker rejects damaged frames in hardware
            self.rx_crc_drops += 1
            return
        if self.collective_rx is not None and frame.dst_port == COLLECTIVE_PORT:
            self.collective_frames_received += 1
            self.sim.call_in(self.timings.collective_op_us, self._collective_deliver, frame)
            return
        self.sim.process(self._rx_frame(frame), name=f"{self.name}.rx")

    # ---------------------------------------------------- collective engine
    # A what-if extension (the DC21140 itself has no programmable core):
    # a small on-controller engine consumes and originates collective
    # packets without touching host memory.  See DESIGN.md.  One packet
    # is one ``collective_op_us`` step nobody waits on: one ``call_in``.
    def _collective_deliver(self, frame: EthernetFrame) -> None:
        if self.collective_rx is not None:  # read now: a handler swapped or cleared meanwhile is honoured
            self.collective_rx(frame.payload)

    def send_collective(self, frame: EthernetFrame) -> None:
        """Collective engine TX: the controller originates the frame —
        no trap, no descriptor ring, no host DMA."""
        self.sim.call_in(self.timings.collective_op_us, self._collective_stage,
                         TxRingDescriptor(frame=frame, completed=True))

    def _collective_stage(self, descriptor: TxRingDescriptor) -> None:
        if not self._tx_fifo.try_put(descriptor):
            self._tx_fifo.put(descriptor)  # full: queue behind the frames already waiting

    def _rx_frame(self, frame: EthernetFrame):
        t = self.timings
        if self.rx_ring.is_full:
            self.rx_overflow_drops += 1
            return
        t0 = self.sim.now
        yield t.rx_dma_start_us
        yield from self.dma.transfer(ETH_HEADER_SIZE + len(frame.payload))
        self._span("DMA frame into host ring buffer", t0)
        if not self.rx_ring.try_push(RxRingBuffer(frame=frame)):
            self.rx_overflow_drops += 1
            return
        self.frames_received += 1
        t0 = self.sim.now
        yield t.rx_interrupt_delay_us
        self._span("raise receive interrupt", t0)
        if self.interrupt is not None:
            self.interrupt()
