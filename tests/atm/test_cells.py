"""Tests for ATM cells and AAL5 segmentation/reassembly."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atm import (
    AAL5_MAX_PDU,
    CELL_PAYLOAD_SIZE,
    SINGLE_CELL_MAX_PAYLOAD,
    Aal5CrcError,
    Aal5Error,
    Aal5LengthError,
    Cell,
    aal5_reassemble,
    aal5_segment,
    cells_for_pdu,
)
from repro.atm.cells import CELL_SIZE


def test_cell_payload_must_be_48_bytes():
    Cell(vci=32, payload=bytes(48))
    with pytest.raises(ValueError):
        Cell(vci=32, payload=bytes(47))
    with pytest.raises(ValueError):
        Cell(vci=32, payload=bytes(53))


def test_cell_compares_its_four_fields_and_is_unhashable():
    cell = Cell(32, bytes(48), True)
    assert cell == Cell(vci=32, payload=bytes(48), last=True, corrupted=False)
    assert all(cell != other for other in (
        Cell(33, bytes(48), True), Cell(32, b"\x01" + bytes(47), True),
        Cell(32, bytes(48)), Cell(32, bytes(48), True, corrupted=True)))
    assert cell != (32, bytes(48), True, False)
    with pytest.raises(TypeError):
        hash(cell)
    assert repr(Cell(7, bytes(48))) == (
        f"Cell(vci=7, payload={bytes(48)!r}, last=False, corrupted=False)")
    assert cell.wire_bytes == Cell.wire_bytes == CELL_SIZE
    with pytest.raises(AttributeError):
        cell.hop = 1  # slotted: a cell carries its four fields and nothing else


def test_cells_for_pdu_boundaries():
    # up to 40 bytes (48 - 8 trailer) fits one cell
    assert cells_for_pdu(0) == 1
    assert cells_for_pdu(SINGLE_CELL_MAX_PAYLOAD) == 1
    assert cells_for_pdu(SINGLE_CELL_MAX_PAYLOAD + 1) == 2
    # 88 bytes + 8 trailer = 96 = 2 cells; 89 needs 3
    assert cells_for_pdu(88) == 2
    assert cells_for_pdu(89) == 3


def test_cells_for_pdu_negative_rejected():
    with pytest.raises(ValueError):
        cells_for_pdu(-1)


def test_segment_single_cell_message():
    cells = aal5_segment(b"x" * 40, vci=33)
    assert len(cells) == 1
    assert cells[0].last
    assert cells[0].vci == 33


def test_segment_multi_cell_flags_only_last():
    cells = aal5_segment(b"y" * 100, vci=40)
    assert len(cells) == cells_for_pdu(100)
    assert [c.last for c in cells] == [False] * (len(cells) - 1) + [True]


def test_roundtrip_various_sizes():
    for size in (0, 1, 39, 40, 41, 48, 96, 100, 1500, 4096):
        payload = bytes((i * 7) % 256 for i in range(size))
        assert aal5_reassemble(aal5_segment(payload, vci=50)) == payload


def test_oversized_pdu_rejected():
    with pytest.raises(ValueError):
        aal5_segment(bytes(AAL5_MAX_PDU + 1), vci=32)


def test_max_pdu_roundtrip():
    payload = bytes(AAL5_MAX_PDU)
    assert aal5_reassemble(aal5_segment(payload, vci=32)) == payload


def test_crc_detects_payload_corruption():
    cells = aal5_segment(b"z" * 100, vci=60)
    corrupted = bytearray(cells[0].payload)
    corrupted[10] ^= 0xFF
    cells[0] = Cell(vci=60, payload=bytes(corrupted), last=cells[0].last, corrupted=True)
    with pytest.raises(Aal5CrcError):
        aal5_reassemble(cells)


def test_lost_cell_detected_by_length():
    cells = aal5_segment(b"w" * 200, vci=61)
    with pytest.raises(Aal5LengthError):
        aal5_reassemble(cells[:1] + cells[2:])  # drop a middle cell


def test_misplaced_eop_detected():
    cells = aal5_segment(b"v" * 100, vci=62)
    cells[-1].last = False
    with pytest.raises(Aal5Error):
        aal5_reassemble(cells)


def test_interleaved_vcis_detected():
    a = aal5_segment(b"a" * 100, vci=70)
    b = aal5_segment(b"b" * 100, vci=71)
    with pytest.raises(Aal5Error):
        aal5_reassemble([a[0], b[1], a[2]] if len(a) > 2 else [a[0], b[-1]])


def test_empty_cell_list_rejected():
    with pytest.raises(Aal5Error):
        aal5_reassemble([])


@given(payload=st.binary(min_size=0, max_size=5000), vci=st.integers(32, 1023))
@settings(max_examples=80)
def test_property_roundtrip(payload, vci):
    cells = aal5_segment(payload, vci)
    assert len(cells) == cells_for_pdu(len(payload))
    assert all(len(c.payload) == CELL_PAYLOAD_SIZE for c in cells)
    assert aal5_reassemble(cells) == payload


@given(payload=st.binary(min_size=1, max_size=500), flip_byte=st.integers(0, 10_000))
@settings(max_examples=50)
def test_property_single_bit_corruption_always_detected(payload, flip_byte):
    cells = aal5_segment(payload, vci=99)
    total = len(cells) * CELL_PAYLOAD_SIZE
    pos = flip_byte % total
    target = pos // CELL_PAYLOAD_SIZE
    offset = pos % CELL_PAYLOAD_SIZE
    body = bytearray(cells[target].payload)
    body[offset] ^= 0x01
    cells[target] = Cell(vci=99, payload=bytes(body), last=cells[target].last, corrupted=True)
    with pytest.raises(Aal5Error):
        aal5_reassemble(cells)


def _single_cell_body(payload):
    """The AAL5 body of a one-cell PDU, built by hand: payload, pad, UU and
    CPI, the length, and the CRC-32 over everything before it."""
    head = (payload + bytes(SINGLE_CELL_MAX_PAYLOAD - len(payload)) + b"\x00\x00"
            + len(payload).to_bytes(2, "big"))
    return head + zlib.crc32(head).to_bytes(4, "big")


def test_every_single_cell_payload_round_trips_as_one_whole_cell():
    for size in range(SINGLE_CELL_MAX_PAYLOAD + 1):
        payload = bytes((i * 11 + size) % 256 for i in range(size))
        cells = aal5_segment(payload, vci=33)
        assert cells == [Cell(33, _single_cell_body(payload), True)]
        assert aal5_reassemble(cells) == payload


def test_single_cell_damage_raises_and_never_returns_bytes():
    for size in (0, 1, 20, SINGLE_CELL_MAX_PAYLOAD):
        body = _single_cell_body(b"q" * size)
        for pos in range(CELL_PAYLOAD_SIZE):
            damaged = bytearray(body)
            damaged[pos] ^= 0xFF
            with pytest.raises((Aal5CrcError, Aal5LengthError)):
                aal5_reassemble([Cell(34, bytes(damaged), True)])


def test_single_cell_without_end_of_pdu_flag_is_misplaced():
    cell = aal5_segment(b"hi", vci=35)[0]
    cell.last = False
    with pytest.raises(Aal5Error, match="^end-of-PDU flag misplaced$") as caught:
        aal5_reassemble([cell])
    assert type(caught.value) is Aal5Error


def test_single_cell_length_field_past_the_cell_is_a_length_error():
    """Every length a one-cell body cannot carry, with a valid CRC, so only
    the length check can refuse it: the message is the general path's."""
    for length in range(SINGLE_CELL_MAX_PAYLOAD + 1, AAL5_MAX_PDU + 1):
        head = bytes(42) + length.to_bytes(2, "big")
        cell = Cell(36, head + zlib.crc32(head).to_bytes(4, "big"), True)
        with pytest.raises(Aal5LengthError) as caught:
            aal5_reassemble([cell])
        assert str(caught.value) == f"trailer length {length} exceeds received 48 bytes"
