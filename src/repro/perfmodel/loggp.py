"""Per-substrate communication stage costs (LogGP-style parameters).

The full-scale Table-1 projections decompose every communication phase
into pipeline stages — sending host, sending NIC, wire, receiving NIC,
receiving host — and take the bottleneck.  The stage costs here are
*derived from the same calibrated constants the DES devices use*
(:class:`~repro.atm.unet_atm.AtmTimings`,
:class:`~repro.ethernet.unet_fe.FeTimings`, the CPU models), so the
analytic model and the simulator agree by construction; an ablation
benchmark cross-checks them against full-DES runs at small scale.

This captures the paper's central architectural asymmetry (Section 4.4):
U-Net/FE burns ~4.2 us of *host* CPU per send but has no NIC processor,
while U-Net/ATM burns ~1.5 us of host CPU and ~10-13 us of the slow
i960 per message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..am.am import AmConfig
from ..am.protocol import HEADER_SIZE
from ..atm.cells import AAL5_TRAILER_SIZE, CELL_PAYLOAD_SIZE, cells_for_pdu
from ..atm.phy import OC3_SONET, TAXI_140, AtmPhy
from ..atm.switch import ASX200_FORWARD_US
from ..atm.unet_atm import AtmTimings, DESCRIPTOR_DMA_BYTES
from ..core.api import DESCRIPTOR_POP_US, DESCRIPTOR_PUSH_US
from ..core.descriptors import SMALL_MESSAGE_MAX
from ..ethernet.dc21140 import NicTimings
from ..ethernet.frames import ETH_HEADER_SIZE, EthernetFrame, wire_time_us
from ..ethernet.switch import SwitchModel, BAY_28115
from ..ethernet.unet_fe import FeTimings
from ..hw.bus import PCI_BUS, BusModel
from ..hw.cpu import CpuModel

__all__ = ["StageCosts", "fe_stage_costs", "atm_stage_costs"]


@dataclass
class StageCosts:
    """Per-message stage costs for AM packets with ``m`` payload bytes.

    All callables take the AM *data* size (the packet adds HEADER_SIZE).
    """

    name: str
    host_send: Callable[[int], float]
    host_recv: Callable[[int], float]
    nic_tx: Callable[[int], float]
    nic_rx: Callable[[int], float]
    wire: Callable[[int], float]
    #: end-to-end one-way latency of an ``m``-byte message (pipeline sum)
    latency: Callable[[int], float]
    #: largest AM data payload per packet
    max_data: int

    def per_message_host(self, m: int) -> float:
        return self.host_send(m) + self.host_recv(m)

    def per_message_nic(self, m: int) -> float:
        return self.nic_tx(m) + self.nic_rx(m)


def fe_stage_costs(
    cpu: CpuModel,
    timings: FeTimings = None,
    nic: NicTimings = None,
    switch: SwitchModel = BAY_28115,
    bus: BusModel = PCI_BUS,
) -> StageCosts:
    """Stage costs of U-Net/FE on ``cpu`` through ``switch``."""
    t = timings or FeTimings.for_cpu(cpu)
    nt = nic or NicTimings()
    ac = AmConfig()
    max_data = 1498 - HEADER_SIZE

    def packet(m: int) -> int:
        return m + HEADER_SIZE

    def host_send(m: int) -> float:
        trap = (
            cpu.trap_entry_us
            + t.check_send_params_us
            + t.ethernet_header_setup_us
            + t.ring_descriptor_setup_us
            + t.issue_poll_demand_us
            + t.free_ring_descriptor_us
            + t.free_send_queue_entry_us
            + cpu.trap_return_us
        )
        return cpu.copy_time(packet(m)) + DESCRIPTOR_PUSH_US + trap

    def host_recv(m: int) -> float:
        handler = cpu.interrupt_entry_us + t.poll_recv_ring_us + t.demux_us + t.alloc_init_recv_descriptor_us
        if packet(m) <= SMALL_MESSAGE_MAX:
            handler += t.copy_fixed_us + cpu.copy_time(packet(m))
        else:
            handler += t.alloc_unet_buffer_us + t.copy_fixed_us + cpu.copy_time(packet(m))
        handler += t.bump_recv_ring_us + cpu.interrupt_return_us
        return handler + ac.dispatch_overhead_us + DESCRIPTOR_POP_US

    def nic_tx(m: int) -> float:
        return nt.tx_descriptor_fetch_us + bus.transfer_time(ETH_HEADER_SIZE + packet(m)) + nt.tx_fifo_threshold_us

    def nic_rx(m: int) -> float:
        return nt.rx_dma_start_us + bus.transfer_time(ETH_HEADER_SIZE + packet(m)) + nt.rx_interrupt_delay_us

    def wire(m: int) -> float:
        frame = EthernetFrame(dst_mac=0, src_mac=1, dst_port=1, src_port=1, payload=b"\0" * packet(m))
        # store-and-forward switches serialize the frame twice
        hops = 2 if switch.store_and_forward else 1
        return hops * wire_time_us(frame) + switch.latency_us

    def latency(m: int) -> float:
        return host_send(m) + nic_tx(m) + wire(m) + nic_rx(m) + host_recv(m)

    return StageCosts(
        name=f"U-Net/FE({switch.name})",
        host_send=host_send,
        host_recv=host_recv,
        nic_tx=nic_tx,
        nic_rx=nic_rx,
        wire=wire,
        latency=latency,
        max_data=max_data,
    )


def atm_stage_costs(
    cpu: CpuModel,
    timings: AtmTimings = None,
    phy: AtmPhy = TAXI_140,
    bus: BusModel = PCI_BUS,
) -> StageCosts:
    """Stage costs of U-Net/ATM on ``cpu`` through the ASX-200."""
    t = timings or AtmTimings()
    ac = AmConfig()
    max_data = 65535 - HEADER_SIZE

    def packet(m: int) -> int:
        return m + HEADER_SIZE

    def cells(m: int) -> int:
        return cells_for_pdu(packet(m))

    def host_send(m: int) -> float:
        return cpu.copy_time(packet(m)) + DESCRIPTOR_PUSH_US + t.host_doorbell_us

    def host_recv(m: int) -> float:
        return ac.dispatch_overhead_us + DESCRIPTOR_POP_US

    def nic_tx(m: int) -> float:
        return (
            t.tx_poll_pickup_us
            + t.tx_per_message_us
            + bus.transfer_time(packet(m))
            + cells(m) * t.tx_per_cell_us
        )

    def nic_rx(m: int) -> float:
        n_cells = cells(m)
        if n_cells == 1 and packet(m) <= CELL_PAYLOAD_SIZE - AAL5_TRAILER_SIZE:
            return t.rx_per_cell_us + t.rx_single_cell_us + bus.transfer_time(DESCRIPTOR_DMA_BYTES + packet(m))
        # cells DMA to the host in 96-byte PCI bursts: two cells per transfer
        per_cell = t.rx_per_cell_us + bus.transfer_time(2 * CELL_PAYLOAD_SIZE) / 2
        return (
            t.rx_buffer_alloc_us
            + n_cells * per_cell
            + t.rx_last_cell_us
            + bus.transfer_time(DESCRIPTOR_DMA_BYTES)
        )

    def wire(m: int) -> float:
        # two link traversals (host-switch, switch-host) pipelined per
        # cell: the message's wire occupancy is one serialization plus
        # the fixed switch/framer latency
        return cells(m) * phy.cell_time_us + ASX200_FORWARD_US + 2 * phy.framer_latency_us

    def latency(m: int) -> float:
        return host_send(m) + nic_tx(m) + wire(m) + nic_rx(m) + host_recv(m)

    return StageCosts(
        name=f"U-Net/ATM({phy.name})",
        host_send=host_send,
        host_recv=host_recv,
        nic_tx=nic_tx,
        nic_rx=nic_rx,
        wire=wire,
        latency=latency,
        max_data=max_data,
    )
