"""The traced step timelines, pinned record by record.

Figures 3 and 4 are step timelines, and the ATM TX path is traced the
same way.  The figure tests check their totals; these pins check every
``(start, duration, label)`` a path records, in order, to the last bit
of the float.  A device model that sleeps through several steps in one
wake must still record each step where the step-by-step model did.
"""

import pytest

from repro.analysis.timelines import atm_trace_transfer, trace_transfer

#: one 40-byte U-Net/FE send trap (Figure 3)
FE_TRAP_40 = [
    (1.048181818181818, 0.6, "trap entry overhead"),
    (1.648181818181818, 0.74, "check U-Net send parameters"),
    (2.3881818181818177, 0.37, "Ethernet header set-up"),
    (2.758181818181818, 0.56, "device send ring descriptor set-up"),
    (3.318181818181818, 0.29, "issue poll demand to DC21140"),
    (3.608181818181818, 0.92, "free send ring descriptor of previous message"),
    (4.528181818181818, 0.42, "free U-Net send queue entry of previous message"),
    (4.948181818181818, 0.3, "return from trap"),
]

#: the U-Net/FE receive handler (Figure 4): 40 bytes inline, 100 through a buffer
FE_RX = {
    40: [
        (21.450000000000003, 0.56, "interrupt handler entry"),
        (22.01, 0.52, "poll device recv ring"),
        (22.53, 0.3, "demux to correct endpoint"),
        (22.830000000000002, 0.6, "alloc+init U-Net recv descr"),
        (23.430000000000003, 1.298181818181818, "copy 40 byte message"),
        (24.72818181818182, 0.4, "bump device recv ring"),
        (25.12818181818182, 0.52, "poll device recv ring"),
        (25.64818181818182, 0.4, "return from interrupt"),
    ],
    100: [
        (28.113181818181822, 0.56, "interrupt handler entry"),
        (28.67318181818182, 0.52, "poll device recv ring"),
        (29.19318181818182, 0.3, "demux to correct endpoint"),
        (29.49318181818182, 0.6, "alloc+init U-Net recv descr"),
        (30.093181818181822, 0.71, "allocate U-Net recv buffer"),
        (30.803181818181823, 2.1504545454545454, "copy 100 byte message"),
        (32.95363636363637, 0.4, "bump device recv ring"),
        (33.35363636363637, 0.52, "poll device recv ring"),
        (33.87363636363637, 0.4, "return from interrupt"),
    ],
}

#: one 1 498-byte U-Net/ATM send on the i960
ATM_TX_1498 = [
    (22.15840909090909, 1.2, "i960 polls transmit queue"),
    (23.35840909090909, 7.7, "parse descriptor, set up DMA"),
    (31.058409090909088, 15.838181818181816, "DMA user buffer to output FIFO"),
    (46.896590909090904, 11.200000000000045, "segment 32 cell(s) onto the fiber"),
]


def _records(span):
    return [(record.start, record.duration, record.step) for record in span.records]


def test_fe_send_trap_records():
    tx, _rx = trace_transfer(40)
    assert _records(tx) == FE_TRAP_40


@pytest.mark.parametrize("size", sorted(FE_RX))
def test_fe_receive_handler_records(size):
    _tx, rx = trace_transfer(size)
    assert _records(rx) == FE_RX[size]


def test_atm_send_records():
    tx, _rx = atm_trace_transfer(1498)
    assert _records(tx) == ATM_TX_1498
