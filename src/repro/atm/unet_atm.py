"""U-Net/ATM: custom i960 firmware on the Fore PCA-200.

This backend reproduces the firmware behaviour of Section 4.2:

* The host enqueues a send descriptor into the *i960-resident* transmit
  queue with a cheap doorbell store (host overhead ~1.5 us total
  including descriptor composition); the i960 polls transmit queues —
  "endpoints with recent activity are polled more frequently" — picks
  the descriptor up, DMAs the user buffer across PCI, and segments it
  into AAL5 cells.
* On receive the i960 processes cells one at a time, demultiplexes on
  the VCI, and either (fast path) transfers a single-cell message
  directly into the next receive-queue entry, or (slow path) allocates a
  buffer from the endpoint's free queue, appends cells into it, checks
  the hardware-accumulated CRC on the last cell, and pushes a descriptor
  onto the receive queue in host memory.

The timing constants below are calibrated to the paper's measurements:
i960 send overhead ~10 us, i960 receive overhead ~13 us for a single-cell
message, 89 us application round-trip for 40 bytes over OC-3c, the
multi-cell latency discontinuity above 40 bytes, and the ~118-120 Mb/s
bandwidth ceiling.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Generator, List, Optional

from ..core.base import UNetBackend
from ..core.descriptors import RecvDescriptor
from ..core.endpoint import Endpoint
from ..core.errors import ChannelError
from ..hw.bus import PCI_BUS, BusModel, DmaEngine
from ..sim import Event, Simulator, Store, TraceRecorder
from .cells import (
    AAL5_MAX_PDU,
    SINGLE_CELL_MAX_PAYLOAD,
    Aal5Error,
    Cell,
    aal5_reassemble,
    aal5_segment,
)
from .phy import CellLink

__all__ = ["AtmTimings", "UNetAtmBackend", "ATM_TX_TRACE", "ATM_RX_TRACE"]

#: trace categories for the two firmware paths
ATM_TX_TRACE = "unet_atm.tx"
ATM_RX_TRACE = "unet_atm.rx"

#: bytes DMAed per receive-queue descriptor write
DESCRIPTOR_DMA_BYTES = 16


@dataclass
class AtmTimings:
    """i960 firmware and host doorbell costs (microseconds).

    Calibration targets (paper Section 4.4): host send overhead ~1.5 us,
    i960 send overhead ~10 us, i960 single-cell receive ~13 us; Figure 5:
    89 us single-cell RTT, ~130 us at 44 bytes; Figure 6: 118-120 Mb/s.
    """

    #: host double-word store of the descriptor into NI memory
    host_doorbell_us: float = 0.40
    #: polling-discovery latency before the i960 notices new TX work
    tx_poll_pickup_us: float = 1.2
    #: per-message TX descriptor parse + DMA setup on the i960
    tx_per_message_us: float = 7.7
    #: per-cell TX work on the i960: segmentation is hardware-assisted
    #: (the AAL5 CRC unit and DMA engine do the framing), so the i960
    #: only paces the DMA bursts
    tx_per_cell_us: float = 0.35
    #: per-cell RX work: FIFO pop, VCI table lookup, bookkeeping
    rx_per_cell_us: float = 1.55
    #: single-cell fast path: direct transfer into the receive-queue entry
    rx_single_cell_us: float = 5.8
    #: slow path, first cell: free-queue pop and buffer mapping
    rx_buffer_alloc_us: float = 14.0
    #: slow path, last cell: CRC check and receive-descriptor construction
    rx_last_cell_us: float = 10.0
    #: NIC-resident collective engine: combine/forward one packet entirely
    #: in firmware — no bus crossing, no descriptor, no host interrupt
    collective_op_us: float = 2.6


#: The SBus-based SBA-200 used by the paper's Split-C ATM cluster
#: (Section 5: "using the FORE Systems SBA-200 SBus adaptor.  The
#: SBA-200 implementation of U-Net is largely identical to that for the
#: PCA-200").  Identical firmware costs; the difference is the bus —
#: build it with ``bus=SBUS`` (32-byte bursts, Section 4.2.2) — plus a
#: slightly slower doorbell across SBus.
SBA200_TIMINGS = AtmTimings(host_doorbell_us=0.6)


class _Reassembly:
    """Per-VCI AAL5 reassembly state inside the firmware."""

    __slots__ = ("cells", "buffer_indices", "dropping")

    def __init__(self) -> None:
        self.cells: List[Cell] = []
        self.buffer_indices: List[int] = []
        self.dropping = False


class UNetAtmBackend(UNetBackend):
    """The PCA-200 NIC with U-Net firmware, attached to one host."""

    wire_unit = "cell"
    #: cap on one collective packet (a few dozen cells; plenty for barriers
    #: and small reduce vectors, bounded so firmware buffering is)
    collective_max_payload = 4096

    def __init__(
        self,
        sim: Simulator,
        name: str,
        timings: Optional[AtmTimings] = None,
        bus: BusModel = PCI_BUS,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        super().__init__(sim, name)
        self.timings = timings or AtmTimings()
        self.trace = trace or TraceRecorder(enabled=False)
        self.dma = DmaEngine(sim, bus, name=f"{name}.dma")
        #: egress cell link toward the switch (set by the network builder)
        self.tx_link: Optional[CellLink] = None
        #: single-cell receive fast path enabled (ablation knob)
        self.single_cell_fast_path = True
        #: optional PDU-size cap below AAL5 (path-MTU rule in mixed fabrics)
        self.max_pdu_cap: Optional[int] = None
        #: reserved VCIs owned by the NIC-resident collective engine
        self._collective_vcis: Dict[int, "Callable[[bytes], None]"] = {}
        self._collective_reasm: Dict[int, List[Cell]] = {}
        self._collective_txq: Deque[tuple] = deque()  # collective packets yet to be sent
        self._collective_tx_busy = False
        self._tx_doorbell: Store[Endpoint] = Store(sim, name=f"{name}.doorbell")
        self._tx_pending: Dict[int, bool] = {}
        self._reassembly: Dict[int, _Reassembly] = {}
        #: receive cell FIFO, and the event the RX firmware sleeps on while it is empty
        self._rx_fifo: Deque[Cell] = deque()
        self._rx_idle: Optional[Event] = None
        # statistics
        self.pdus_sent = 0
        self.pdus_received = 0
        self.collective_cells_received = 0  # consumed by the collective engine, never an endpoint's
        self.crc_errors = 0
        sim.process(self._tx_firmware(), name=f"{name}.i960-tx")
        sim.process(self._rx_firmware(), name=f"{name}.i960-rx")

    # ------------------------------------------------------------------ API
    @property
    def max_pdu(self) -> int:
        if self.max_pdu_cap is not None:
            return min(AAL5_MAX_PDU, self.max_pdu_cap)
        return AAL5_MAX_PDU

    @property
    def host_send_overhead_us(self) -> float:
        # descriptor push is charged by the API layer; the doorbell here.
        return self.timings.host_doorbell_us

    def close(self) -> None:
        super().close()
        self._rx_fifo.clear()
        self._reassembly.clear()
        self._collective_reasm.clear()
        self._collective_txq.clear()

    def kick(self, endpoint: Endpoint) -> Generator:
        """Host side: the doorbell store into NI memory."""
        yield self.timings.host_doorbell_us
        if not self._tx_pending.get(endpoint.id):
            self._tx_pending[endpoint.id] = True
            self._tx_doorbell.try_put(endpoint)

    def _step(self, category: str, label: str, duration: float, begin: bool = False) -> Generator:
        start = self.sim.now
        yield duration
        self.trace.record(start, duration, category, label, begin=begin)

    def _timed_dma(self, category: str, label: str, nbytes: int) -> Generator:
        start = self.sim.now
        yield from self.dma.transfer(nbytes)
        self.trace.record(start, self.sim.now - start, category, label)

    # ------------------------------------------------------------- transmit
    def _tx_firmware(self) -> Generator:
        t = self.timings
        while True:
            endpoint = yield self._tx_doorbell.get()
            self._tx_pending[endpoint.id] = False
            yield from self._step(ATM_TX_TRACE, "i960 polls transmit queue", t.tx_poll_pickup_us,
                                  begin=True)
            while True:
                descriptor = endpoint.take_send_descriptor()
                if descriptor is None:
                    break
                yield from self._step(ATM_TX_TRACE, "parse descriptor, set up DMA", t.tx_per_message_us)
                binding = endpoint.channels.get(descriptor.channel_id)
                if binding is None:
                    continue  # protection: unregistered channel (or a destroyed endpoint), drop
                payload = b"".join(
                    endpoint.buffers.buffer(idx).read(length) for idx, length in descriptor.segments
                )
                # DMA the user buffer(s) from host memory to the output FIFO.
                yield from self._timed_dma(ATM_TX_TRACE, "DMA user buffer to output FIFO",
                                           max(1, len(payload)))
                endpoint.send_completed(descriptor)
                binding.messages_sent += 1
                cells = aal5_segment(payload, vci=binding.tag.tx_vci)
                segment_start = self.sim.now
                for cell in cells:
                    yield t.tx_per_cell_us
                    if self.tx_link is not None:
                        self.tx_link.submit(cell)
                self.trace.record(segment_start, self.sim.now - segment_start, ATM_TX_TRACE,
                                  f"segment {len(cells)} cell(s) onto the fiber")
                self.pdus_sent += 1

    def rx_fault_hooks(self):
        """Delivery hook points a fault pipeline may interpose on.

        Cells funnel through :meth:`on_cell`; returns the single
        ``(owner, attribute_name)`` pair naming it.
        """
        return [(self, "on_cell")]

    # -------------------------------------------------------------- receive
    def on_cell(self, cell: Cell) -> None:
        """Ingress callback wired to the switch-egress CellLink."""
        self._rx_fifo.append(cell)
        if self._rx_idle is not None:
            idle, self._rx_idle = self._rx_idle, None
            idle.succeed()

    def _rx_firmware(self) -> Generator:
        # per-cell waits are yielded here, not through _step/_timed_dma: one frame per wake
        t = self.timings
        sim, fifo = self.sim, self._rx_fifo
        while True:
            if not fifo:
                self._rx_idle = sim.event()
                yield self._rx_idle
            cell = fifo.popleft()
            is_first = self._reassembly.get(cell.vci) is None
            start = sim.now
            yield t.rx_per_cell_us
            self.trace.record(start, t.rx_per_cell_us, ATM_RX_TRACE, "pop cell, VCI table lookup",
                              begin=is_first)
            # reserved VCIs first: a collective cell is not an unknown tag
            handler = self._collective_vcis.get(cell.vci)
            if handler is not None:
                yield from self._rx_collective(cell, handler)
                continue
            target = self.demux.lookup(cell.vci)
            if target is None:
                continue
            endpoint, channel_id = target
            if endpoint.quarantined:
                # containment: drop the cell right after the VCI lookup so
                # a misbehaving endpoint stops consuming i960 service time
                # (no buffer allocation, no DMA); one drop counted per PDU
                state = self._reassembly.pop(cell.vci, None)
                if state is not None:
                    for idx in state.buffer_indices:
                        endpoint.free_queue.try_push(idx)
                if cell.last:
                    self.quarantine_drops += 1
                    endpoint.note_drop("quarantine_drops")
                continue
            state = self._reassembly.get(cell.vci)
            if state is None and cell.last and self.single_cell_fast_path:
                yield from self._rx_single_cell(cell, endpoint, channel_id)
                continue
            if state is None:
                state = _Reassembly()
                self._reassembly[cell.vci] = state
                yield from self._step(ATM_RX_TRACE, "allocate buffer from free queue",
                                      t.rx_buffer_alloc_us)
                taken = endpoint.take_free_buffer()
                if taken is None:
                    state.dropping = True
                    self.no_buffer_drops += 1
                    endpoint.note_drop("no_buffer_drops")
                else:
                    state.buffer_indices.append(taken)
            if not state.dropping:
                state.cells.append(cell)
                # cells are DMAed into the host buffer in 96-byte PCI
                # bursts (Section 4.2.2), i.e. two cells per transfer
                if len(state.cells) % 2 == 0 or cell.last:
                    start = sim.now
                    yield from self.dma.transfer(2 * len(cell.payload))
                    self.trace.record(start, sim.now - start, ATM_RX_TRACE,
                                      "DMA cell burst into buffer")
            if cell.last:
                del self._reassembly[cell.vci]
                if not state.dropping:
                    yield from self._rx_complete(state, endpoint, channel_id)

    # ---------------------------------------------------- collective engine
    def register_collective(self, handler: Callable[[bytes], None], vci: int) -> None:
        """Reserve ``vci`` for the NIC-resident collective engine.

        Cells arriving on it are reassembled and consumed inside the
        firmware — no buffer allocation, no DMA, no host interrupt.
        """
        if vci in self.demux:
            raise ChannelError(f"VCI {vci} already demultiplexes to an endpoint")
        self._collective_vcis[vci] = handler

    def send_collective(self, vci: int, payload: bytes) -> None:
        """Firmware-originated send: segment and transmit, no host at all."""
        self._collective_txq.append((vci, payload))
        if not self._collective_tx_busy:
            self._collective_tx_next()

    def _collective_tx_next(self) -> None:
        """One ``call_in`` per i960 delay: nobody waits, and ``tx_link`` is shared cell by cell."""
        self._collective_tx_busy = bool(self._collective_txq)
        if self._collective_tx_busy:
            vci, payload = self._collective_txq.popleft()
            self.sim.call_in(self.timings.collective_op_us, self._collective_tx_segment,
                             self.sim.now, aal5_segment(payload, vci=vci))

    def _collective_tx_segment(self, op_start: float, cells: List[Cell]) -> None:
        t = self.timings
        self.trace.record(op_start, t.collective_op_us, ATM_TX_TRACE, "collective engine send",
                          begin=False)
        self.sim.call_in(t.tx_per_cell_us, self._collective_tx_cell, cells, 0)

    def _collective_tx_cell(self, cells: List[Cell], index: int) -> None:
        if self.tx_link is not None:
            self.tx_link.submit(cells[index])
        if index + 1 < len(cells):
            self.sim.call_in(self.timings.tx_per_cell_us, self._collective_tx_cell, cells, index + 1)
        else:
            self._collective_tx_next()

    def _rx_collective(self, cell: Cell, handler: Callable[[bytes], None]) -> Generator:
        cells = self._collective_reasm.setdefault(cell.vci, [])
        cells.append(cell)
        self.collective_cells_received += 1
        if not cell.last:
            return
        del self._collective_reasm[cell.vci]
        yield from self._step(ATM_RX_TRACE, "collective engine combine",
                              self.timings.collective_op_us)
        try:
            payload = aal5_reassemble(cells)
        except Aal5Error:
            self.crc_errors += 1
            return
        handler(payload)

    def _rx_single_cell(self, cell: Cell, endpoint: Endpoint, channel_id: int) -> Generator:
        """Fast path: the whole message lands in the receive descriptor."""
        t = self.timings
        yield from self._step(ATM_RX_TRACE, "single-cell fast path (no buffer alloc)",
                              t.rx_single_cell_us)
        try:
            payload = aal5_reassemble([cell])
        except Aal5Error:
            self.crc_errors += 1
            return
        yield from self._timed_dma(ATM_RX_TRACE, "DMA message into receive descriptor",
                                   DESCRIPTOR_DMA_BYTES + len(payload))
        descriptor = RecvDescriptor(channel_id=channel_id, length=len(payload), inline=payload)
        if not endpoint.deliver(descriptor):
            self.recv_queue_drops += 1
        else:
            self.pdus_received += 1

    def _rx_complete(self, state: _Reassembly, endpoint: Endpoint, channel_id: int) -> Generator:
        """Slow path completion: CRC check, buffer fill, descriptor push."""
        t = self.timings
        yield from self._step(ATM_RX_TRACE, "check hardware CRC, build descriptor",
                              t.rx_last_cell_us)
        if endpoint.closed:
            endpoint.note_drop("recv_queue_drops")  # destroyed mid-PDU: its buffers are gone
            self.recv_queue_drops += 1
            return
        try:
            payload = aal5_reassemble(state.cells)
        except Aal5Error:
            self.crc_errors += 1
            for idx in state.buffer_indices:
                endpoint.free_queue.try_push(idx)
            return
        # spill across additional free-queue buffers if the PDU is larger
        # than one buffer (chained-buffer receive).
        segments = []
        offset = 0
        buffer_size = endpoint.buffers.buffer_size
        indices = list(state.buffer_indices)
        while offset < len(payload) or (not segments and not payload):
            if not indices:
                yield from self._step(ATM_RX_TRACE, "allocate buffer from free queue",
                                      t.rx_buffer_alloc_us)
                idx = endpoint.take_free_buffer()
                if idx is None:
                    self.no_buffer_drops += 1
                    endpoint.note_drop("no_buffer_drops")
                    for used_idx, _len in segments:
                        endpoint.free_queue.try_push(used_idx)
                    return
                indices.append(idx)
            idx = indices.pop(0)
            chunk = payload[offset : offset + buffer_size]
            buf = endpoint.buffers.buffer(idx)
            buf.clear()
            buf.write(chunk)
            segments.append((idx, len(chunk)))
            offset += len(chunk)
            if not payload:
                break
        yield from self._timed_dma(ATM_RX_TRACE, "DMA descriptor into receive queue",
                                   DESCRIPTOR_DMA_BYTES)
        descriptor = RecvDescriptor(channel_id=channel_id, length=len(payload), segments=segments)
        if not endpoint.deliver(descriptor):
            self.recv_queue_drops += 1
            for idx, _length in segments:
                endpoint.free_queue.try_push(idx)
        else:
            self.pdus_received += 1
