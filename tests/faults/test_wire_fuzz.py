"""Byte-fuzz of the decoders a fault stage leans on.

A fault stage sees whatever the wire (or an upstream ``Corrupt`` stage)
left: it peeks the AM header of a PDU's first unit with
``peek_type_seq``, and a ``mark`` re-frames cells through
``CellWire.rewrite``, which reassembles them with ``aal5_reassemble``.
Each must succeed or fail with its typed error — never raise anything
else — on any bytes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.am.protocol import HEADER_SIZE, mark_ce, peek_type_seq
from repro.atm.cells import (
    CELL_PAYLOAD_SIZE,
    Aal5Error,
    Cell,
    CellWire,
    aal5_reassemble,
    aal5_segment,
)

_random_cells = st.lists(
    st.builds(Cell, vci=st.integers(0, 2),
              payload=st.binary(min_size=CELL_PAYLOAD_SIZE, max_size=CELL_PAYLOAD_SIZE),
              last=st.booleans()),
    max_size=6)


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


@settings(max_examples=300, deadline=None)
@given(cells=_cells)
def test_aal5_reassemble_returns_bytes_or_raises_aal5_error(cells):
    try:
        payload = aal5_reassemble(cells)
    except Aal5Error:
        return
    assert isinstance(payload, bytes)


@settings(max_examples=300, deadline=None)
@given(cells=_cells, edit=st.sampled_from([mark_ce, bytes, lambda raw: raw + b"!"]))
def test_cell_wire_rewrite_never_raises(cells, edit):
    out = CellWire.rewrite(cells, edit)
    try:
        payload = aal5_reassemble(cells)
        edited = edit(payload)
    except (Aal5Error, ValueError):
        assert out is cells  # damaged, or nothing to edit: passed untouched
        return
    assert aal5_reassemble(out) == edited  # re-framed with a valid CRC
    assert {cell.vci for cell in out} == {cells[0].vci}


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=3 * HEADER_SIZE))
def test_peek_type_seq_never_raises(raw):
    peeked = peek_type_seq(raw)
    if len(raw) < HEADER_SIZE:
        assert peeked is None
    else:
        ptype, seq = peeked
        assert 0 <= ptype <= 0xFF and 0 <= seq <= 0xFFFF
