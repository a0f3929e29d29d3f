"""Byte-fuzz of the decoders a damaged packet can reach.

A fault stage sees whatever the wire (or an upstream ``Corrupt`` stage)
left: it peeks the AM header of a PDU's first unit with
``peek_type_seq``, and a ``mark`` re-frames cells through
``CellWire.rewrite``, which reassembles them with ``aal5_reassemble``.
Behind the stages, the AM receive path decodes with
``am.protocol.decode``, U-Net/FE's IP encapsulation parses with
``ethernet.ip.parse_ipv4_udp`` and a NIC collective engine takes its
packets in ``on_packet``.  Each must succeed or fail with its typed
error — never raise anything else — on any bytes; a one-cell PDU, which
``aal5_reassemble`` checks on its own branch, must fail with the class
and message the general checks give.  The frame and
datagram wires keep ``CellWire``'s contract: ``rewrite`` never raises,
and a PDU the edit refuses passes untouched.
"""

import random
import zlib
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.am.protocol import HEADER_SIZE, Packet, decode, mark_ce, peek_type_seq
from repro.atm.cells import (
    AAL5_MAX_PDU,
    CELL_PAYLOAD_SIZE,
    SINGLE_CELL_MAX_PAYLOAD,
    Aal5CrcError,
    Aal5Error,
    Aal5LengthError,
    Cell,
    CellWire,
    aal5_reassemble,
    aal5_segment,
)
from repro.collectives.engine import (
    _HEADER, ACK, ARRIVE, CollectiveError, NicCollectiveEngine,
)
from repro.collectives.tree import KAryTree
from repro.ethernet.frames import UNET_FE_MAX_PDU, EthernetFrame, FrameWire
from repro.ethernet.ip import IP_ENCAP_OVERHEAD, IpHeaderError, build_ipv4_udp, parse_ipv4_udp
from repro.live.backend import FRAME_HEADER_SIZE, DatagramWire
from repro.sim import Simulator

_random_cell = st.builds(Cell, vci=st.integers(0, 2),
                         payload=st.binary(min_size=CELL_PAYLOAD_SIZE, max_size=CELL_PAYLOAD_SIZE),
                         last=st.booleans())
_random_cells = st.lists(_random_cell, max_size=6)


@st.composite
def _damaged_pdus(draw):
    """A real AAL5 PDU, with a byte flipped or a cell lost, or intact."""
    cells = aal5_segment(draw(st.binary(max_size=200)), vci=draw(st.integers(0, 2)))
    damage = draw(st.sampled_from(["none", "flip", "drop"]))
    index = draw(st.integers(0, len(cells) - 1))
    if damage == "flip":
        body = bytearray(cells[index].payload)
        body[draw(st.integers(0, CELL_PAYLOAD_SIZE - 1))] ^= draw(st.integers(1, 255))
        cells[index] = Cell(cells[index].vci, bytes(body), cells[index].last)
    elif damage == "drop":
        del cells[index]
    return cells


_cells = st.one_of(_random_cells, _damaged_pdus())

#: what a stage edits with: the CE mark (refuses an empty message), a
#: no-op, and a growth that can push a full-size frame past its PDU limit
_EDITS = st.sampled_from([mark_ce, bytes, lambda raw: raw + b"!"])


def _valid_pdu(cells):
    return (all(type(cell) is Cell and len(cell.payload) == CELL_PAYLOAD_SIZE for cell in cells)
            and [cell.last for cell in cells] == [False] * (len(cells) - 1) + [True])


@settings(max_examples=300, deadline=None)
@given(cells=_cells)
def test_aal5_reassemble_returns_bytes_or_raises_aal5_error(cells):
    try:
        payload = aal5_reassemble(cells)
    except Aal5Error:
        return
    assert isinstance(payload, bytes)


@settings(max_examples=300, deadline=None)
@given(cells=_cells, edit=_EDITS)
def test_cell_wire_rewrite_never_raises(cells, edit):
    out = CellWire.rewrite(cells, edit)
    try:
        payload = aal5_reassemble(cells)
        edited = edit(payload)
    except (Aal5Error, ValueError):
        assert out is cells  # damaged, or nothing to edit: passed untouched
        return
    assert aal5_reassemble(out) == edited  # re-framed with a valid CRC
    assert {cell.vci for cell in out} == {cells[0].vci} and _valid_pdu(out)


@settings(max_examples=300, deadline=None)
@given(cell=_random_cell, seed=st.integers(0, 2**32 - 1))
def test_cell_wire_corrupt_flips_one_byte_and_flags_the_cell(cell, seed):
    out = CellWire.corrupt(cell, random.Random(seed))
    assert type(out) is Cell and out.corrupted
    assert [a ^ b for a, b in zip(cell.payload, out.payload) if a != b] == [0xFF]
    assert out == Cell(cell.vci, out.payload, cell.last, corrupted=True)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cell_wire_forge_is_a_one_cell_pdu_on_an_unsignalled_vci(seed):
    cell = CellWire.forge(None, random.Random(seed))
    assert _valid_pdu([cell]) and not cell.corrupted
    assert 0x8000 <= cell.vci < 0x9000 and CellWire.pdu(cell) == (cell.vci, True)


_one_cell_payloads = st.binary(max_size=SINGLE_CELL_MAX_PAYLOAD)


@settings(max_examples=200, deadline=None)
@given(payload=_one_cell_payloads, vci=st.integers(0, 0xFFFF))
def test_single_cell_pdu_round_trips_in_one_whole_cell(payload, vci):
    cells = aal5_segment(payload, vci)
    assert _valid_pdu(cells) and len(cells) == 1
    assert cells[0].payload[:len(payload)] == payload
    assert aal5_reassemble(cells) == payload


@settings(max_examples=300, deadline=None)
@given(payload=_one_cell_payloads, pos=st.integers(0, CELL_PAYLOAD_SIZE - 1),
       mask=st.integers(1, 255))
def test_single_cell_with_a_flipped_byte_raises_a_typed_error(payload, pos, mask):
    cell = aal5_segment(payload, vci=7)[0]
    body = bytearray(cell.payload)
    body[pos] ^= mask
    try:
        got = aal5_reassemble([Cell(7, bytes(body), True)])
    except (Aal5CrcError, Aal5LengthError):
        return
    raise AssertionError(f"damaged single cell reassembled to {got!r}")


@settings(max_examples=100, deadline=None)
@given(payload=_one_cell_payloads)
def test_single_cell_without_its_flag_is_misplaced(payload):
    cell = aal5_segment(payload, vci=7)[0]
    cell.last = False
    try:
        aal5_reassemble([cell])
    except Aal5Error as exc:
        assert type(exc) is Aal5Error and str(exc) == "end-of-PDU flag misplaced"
    else:
        raise AssertionError("a cell without the end-of-PDU flag reassembled")


@settings(max_examples=300, deadline=None)
@given(length=st.integers(SINGLE_CELL_MAX_PAYLOAD + 1, AAL5_MAX_PDU), fill=st.binary(
    min_size=SINGLE_CELL_MAX_PAYLOAD + 2, max_size=SINGLE_CELL_MAX_PAYLOAD + 2))
def test_single_cell_length_past_the_cell_is_a_length_error(length, fill):
    head = fill + length.to_bytes(2, "big")
    cell = Cell(7, head + zlib.crc32(head).to_bytes(4, "big"), True)  # CRC valid
    try:
        aal5_reassemble([cell])
    except Aal5LengthError as exc:
        assert str(exc) == f"trailer length {length} exceeds received 48 bytes"
    else:
        raise AssertionError(f"length field {length} accepted in one cell")


_frames = st.builds(
    EthernetFrame, dst_mac=st.integers(0, (1 << 48) - 1), src_mac=st.integers(0, (1 << 48) - 1),
    dst_port=st.integers(0, 0xFF), src_port=st.integers(0, 0xFF),
    payload=st.one_of(st.binary(max_size=3 * HEADER_SIZE),
                      st.binary(min_size=UNET_FE_MAX_PDU - 2, max_size=UNET_FE_MAX_PDU)),
    corrupted=st.booleans())


def _edited(edit, raw, limit):
    """``edit(raw)``, or None where the edit refuses or outgrows ``limit``."""
    try:
        out = edit(raw)
    except ValueError:
        return None
    return out if len(out) <= limit else None


@settings(max_examples=300, deadline=None)
@given(frames=st.lists(_frames, max_size=3), edit=_EDITS)
def test_frame_wire_rewrite_never_raises(frames, edit):
    out = FrameWire.rewrite(frames, edit)
    assert len(out) == len(frames)
    for before, after in zip(frames, out):
        edited = _edited(edit, before.payload, UNET_FE_MAX_PDU)
        if edited is None:
            assert after is before  # nothing to edit, or too long: passed untouched
        else:
            assert after == replace(before, payload=edited)


@settings(max_examples=300, deadline=None)
@given(frame=_frames, seed=st.integers(0, 2**32 - 1))
def test_frame_wire_corrupt_flips_one_byte_and_flags_the_frame(frame, seed):
    out = FrameWire.corrupt(frame, random.Random(seed))
    assert out.corrupted and len(out.payload) == len(frame.payload)
    flipped = [a ^ b for a, b in zip(frame.payload, out.payload) if a != b]
    assert flipped == ([0xFF] if frame.payload else [])
    assert out == replace(frame, payload=out.payload, corrupted=True)


@settings(max_examples=300, deadline=None)
@given(datagrams=st.lists(st.binary(max_size=FRAME_HEADER_SIZE + 2 * HEADER_SIZE), max_size=3),
       edit=_EDITS)
def test_datagram_wire_rewrite_never_raises(datagrams, edit):
    out = DatagramWire.rewrite(datagrams, edit)
    assert len(out) == len(datagrams)
    for before, after in zip(datagrams, out):
        edited = _edited(edit, before[FRAME_HEADER_SIZE:], float("inf"))
        if edited is None:
            assert after is before
        else:
            assert after == before[:FRAME_HEADER_SIZE] + edited


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=3 * HEADER_SIZE))
def test_peek_type_seq_never_raises(raw):
    peeked = peek_type_seq(raw)
    if len(raw) < HEADER_SIZE:
        assert peeked is None
    else:
        ptype, seq = peeked
        assert 0 <= ptype <= 0xFF and 0 <= seq <= 0xFFFF


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=3 * HEADER_SIZE))
def test_am_decode_returns_a_packet_or_raises_value_error(raw):
    """``ValueError`` is what ``AmCore._receive`` catches and drops."""
    try:
        packet = decode(raw)
    except ValueError:
        return
    assert isinstance(packet, Packet)


def _mutated(draw, valid: bytes) -> bytes:
    """``valid`` with a few bytes flipped, cut short or extended."""
    raw = bytearray(valid)
    for _ in range(draw(st.integers(0, 3))):
        if raw:
            raw[draw(st.integers(0, len(raw) - 1))] ^= draw(st.integers(1, 255))
    cut = draw(st.sampled_from(["none", "truncate", "extend"]))
    if cut == "truncate":
        del raw[draw(st.integers(0, len(raw))):]
    elif cut == "extend":
        raw += draw(st.binary(min_size=1, max_size=8))
    return bytes(raw)


@st.composite
def _datagrams(draw):
    valid = build_ipv4_udp(draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1)),
                           draw(st.integers(0, 0xFFFF)), draw(st.integers(0, 0xFFFF)),
                           draw(st.binary(max_size=64)))
    return _mutated(draw, valid)


@settings(max_examples=300, deadline=None)
@given(datagram=_datagrams())
def test_parse_ipv4_udp_returns_its_tuple_or_raises_ip_header_error(datagram):
    try:
        src_ip, dst_ip, src_port, dst_port, ttl, payload = parse_ipv4_udp(datagram)
    except IpHeaderError:
        return
    assert payload == datagram[IP_ENCAP_OVERHEAD:] and 0 <= ttl <= 255


class _Adapter:
    """A NIC binding that records what the engine sends."""

    max_payload = 256

    def __init__(self):
        self.sent = []

    def send(self, peer, packet):
        self.sent.append((peer, packet))


@st.composite
def _collective_packets(draw):
    """Raw bytes, or a header whose every field is drawn (kinds 0..9,
    the current epoch mostly) with a payload, possibly damaged."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=2 * _HEADER.size))
    header = _HEADER.pack(draw(st.integers(0, 9)), draw(st.integers(0, 255)),
                          draw(st.integers(0, 0xFFFF)), draw(st.integers(0, 6)),
                          draw(st.sampled_from([0, 0, 1])))
    return _mutated(draw, header + draw(st.binary(max_size=24)))


@settings(max_examples=400, deadline=None)
@given(node=st.integers(0, 4), packets=st.lists(_collective_packets(), min_size=1, max_size=4))
def test_collective_on_packet_succeeds_or_raises_collective_error(node, packets):
    """A refused packet is refused before it is counted or acked."""
    sim = Simulator()
    adapter = _Adapter()
    engine = NicCollectiveEngine(sim, node, KAryTree(5, fanout=2), adapter)
    try:
        for raw in packets:
            before = (engine.packets_received, len(adapter.sent))
            malformed = len(raw) < _HEADER.size or not ARRIVE <= raw[0] <= ACK
            try:
                engine.on_packet(raw)
            except CollectiveError:
                if malformed:
                    assert (engine.packets_received, len(adapter.sent)) == before
            else:
                assert not malformed
    finally:
        sim.close()
