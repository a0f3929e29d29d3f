"""ATM cells and AAL5 segmentation/reassembly.

ATM carries everything in 53-byte cells: a 5-byte header (we model the
VCI and the AAL5 end-of-PDU indication from the PTI field) plus 48 bytes
of payload.  AAL5 packs a PDU by appending a pad and an 8-byte trailer
(length + CRC-32) so the total is a multiple of 48 bytes; the last cell
of a PDU is flagged, and the receiver checks length and CRC (the PCA-200
accumulates the CRC in hardware).
"""

from __future__ import annotations

import zlib
from typing import List

__all__ = [
    "Cell",
    "Aal5Error",
    "Aal5CrcError",
    "Aal5LengthError",
    "CELL_SIZE",
    "CELL_PAYLOAD_SIZE",
    "AAL5_TRAILER_SIZE",
    "AAL5_MAX_PDU",
    "SINGLE_CELL_MAX_PAYLOAD",
    "cells_for_pdu",
    "aal5_segment",
    "aal5_reassemble",
    "CellWire",
]

CELL_SIZE = 53
CELL_PAYLOAD_SIZE = 48
AAL5_TRAILER_SIZE = 8
#: AAL5 length field is 16 bits -> 65535-byte maximum PDU ("the maximum
#: packet size is 65KBytes", Section 4).
AAL5_MAX_PDU = 65535
#: the largest user payload that fits a single cell with its trailer —
#: this bound drives the single-cell fast path and the latency
#: discontinuity above 40 bytes in Figure 5.
SINGLE_CELL_MAX_PAYLOAD = CELL_PAYLOAD_SIZE - AAL5_TRAILER_SIZE


class Aal5Error(Exception):
    """AAL5 reassembly failure."""


class Aal5CrcError(Aal5Error):
    """CRC-32 mismatch over the reassembled PDU."""


class Aal5LengthError(Aal5Error):
    """Trailer length field inconsistent with the received cells."""


class Cell:
    """One ATM cell on the wire: built per 48 bytes carried, so slotted by
    hand (``dataclass(slots=True)`` needs Python 3.10); it validates,
    compares, refuses to hash and prints as a dataclass would."""

    __slots__ = ("vci", "payload", "last", "corrupted")
    #: every cell is the same size on the wire (a class constant, not a field)
    wire_bytes = CELL_SIZE

    def __init__(self, vci: int, payload: bytes, last: bool = False, corrupted: bool = False) -> None:
        if len(payload) != CELL_PAYLOAD_SIZE:
            raise ValueError(f"cell payload must be {CELL_PAYLOAD_SIZE} bytes, got {len(payload)}")
        self.vci = vci
        self.payload = payload
        #: AAL5 end-of-PDU flag (PTI bit)
        self.last = last
        #: set by fault injection to model wire corruption; the payload bytes
        #: are already corrupted when this is set (the flag only aids tests)
        self.corrupted = corrupted

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.vci, self.payload, self.last, self.corrupted)
                == (other.vci, other.payload, other.last, other.corrupted))

    __hash__ = None  # mutable and compared by value

    def __repr__(self) -> str:
        return (f"Cell(vci={self.vci!r}, payload={self.payload!r}, last={self.last!r}, "
                f"corrupted={self.corrupted!r})")


def cells_for_pdu(payload_len: int) -> int:
    """Number of cells AAL5 uses for a ``payload_len``-byte PDU."""
    if payload_len < 0:
        raise ValueError("negative payload length")
    total = payload_len + AAL5_TRAILER_SIZE
    return max(1, -(-total // CELL_PAYLOAD_SIZE))


def aal5_segment(payload: bytes, vci: int) -> List[Cell]:
    """Segment ``payload`` into AAL5 cells for ``vci``.

    >>> cells = aal5_segment(b"hello", vci=42)
    >>> len(cells), cells[0].last, len(cells[0].payload)
    (1, True, 48)
    >>> aal5_reassemble(cells)
    b'hello'
    >>> [c.last for c in aal5_segment(b"x" * 100, vci=42)]
    [False, False, True]
    """
    if len(payload) > AAL5_MAX_PDU:
        raise ValueError(f"PDU of {len(payload)} bytes exceeds AAL5 maximum {AAL5_MAX_PDU}")
    pad = (-(len(payload) + AAL5_TRAILER_SIZE)) % CELL_PAYLOAD_SIZE
    # the pad sits between payload and trailer so the trailer occupies the
    # final 8 bytes of the last cell; the CRC-32 covers payload + pad +
    # the first four trailer bytes (UU, CPI, length), as in real AAL5.
    head = payload + bytes(pad) + b"\x00\x00" + len(payload).to_bytes(2, "big")
    crc = zlib.crc32(head) & 0xFFFFFFFF
    body = head + crc.to_bytes(4, "big")
    if len(body) == CELL_PAYLOAD_SIZE:
        return [Cell(vci, body, True)]
    last = len(body) - CELL_PAYLOAD_SIZE
    return [Cell(vci, body[i : i + CELL_PAYLOAD_SIZE], i == last)
            for i in range(0, len(body), CELL_PAYLOAD_SIZE)]


def aal5_reassemble(cells: List[Cell]) -> bytes:
    """Reassemble and validate an AAL5 PDU from its cells.

    Raises :class:`Aal5LengthError` or :class:`Aal5CrcError` on damage —
    the same checks the PCA-200's hardware CRC unit performs.
    """
    if len(cells) == 1:
        # the checks below in their order, less the ones one cell cannot
        # fail: a 48-byte body's length field is at most 40 in range, and
        # every such length takes one cell
        cell = cells[0]
        if not cell.last:
            raise Aal5Error("end-of-PDU flag misplaced")
        body = cell.payload
        length = int.from_bytes(body[-6:-4], "big")
        if length > len(body) - AAL5_TRAILER_SIZE:
            raise Aal5LengthError(f"trailer length {length} exceeds received {len(body)} bytes")
        if (zlib.crc32(body[:-4]) & 0xFFFFFFFF) != int.from_bytes(body[-4:], "big"):
            raise Aal5CrcError("AAL5 CRC-32 mismatch")
        return body[:length]
    if not cells:
        raise Aal5Error("no cells to reassemble")
    if not cells[-1].last or any(c.last for c in cells[:-1]):
        raise Aal5Error("end-of-PDU flag misplaced")
    vci = cells[0].vci
    if any(c.vci != vci for c in cells):
        raise Aal5Error("cells from different VCIs interleaved into one PDU")
    body = b"".join(c.payload for c in cells)
    trailer = body[-AAL5_TRAILER_SIZE:]
    length = int.from_bytes(trailer[2:4], "big")
    crc = int.from_bytes(trailer[4:8], "big")
    if length > len(body) - AAL5_TRAILER_SIZE:
        raise Aal5LengthError(f"trailer length {length} exceeds received {len(body)} bytes")
    if len(cells) != cells_for_pdu(length):
        raise Aal5LengthError(f"{len(cells)} cells received for a {length}-byte PDU")
    if (zlib.crc32(body[:-4]) & 0xFFFFFFFF) != crc:
        raise Aal5CrcError("AAL5 CRC-32 mismatch")
    return body[:length]


class CellWire:
    """U-Net/ATM's wire as the fault layer sees it (``backend.wire``).

    A PDU is the cells of one VCI up to the end-of-PDU flag, and the AM
    header fits its first cell, so a fault stage can decide a PDU's fate
    there without reassembly.
    """

    @staticmethod
    def pdu(cell: Cell):
        """``(key, last)``: the VCI the cell's PDU is reassembled on."""
        return cell.vci, cell.last

    @staticmethod
    def head(cell: Cell) -> bytes:
        return cell.payload

    @staticmethod
    def rewrite(cells: List[Cell], edit) -> List[Cell]:
        """The PDU with ``edit`` applied to its payload, re-segmented so
        the trailer CRC is valid again — what a conforming switch does to
        CE-mark a PDU in flight.  A PDU that does not reassemble (already
        damaged) or does not edit passes untouched: the receiver's CRC
        check owns its fate.  Never raises."""
        try:
            return aal5_segment(edit(aal5_reassemble(cells)), cells[0].vci)
        except (Aal5Error, ValueError):
            return cells

    @staticmethod
    def corrupt(cell: Cell, rng) -> Cell:
        """One payload byte flipped; the cell is flagged."""
        body = bytearray(cell.payload)
        body[rng.randrange(len(body))] ^= 0xFF
        return Cell(vci=cell.vci, payload=bytes(body), last=cell.last, corrupted=True)

    @staticmethod
    def forge(backend, rng) -> Cell:
        """A one-cell PDU on a VCI far above anything signaling hands out."""
        return Cell(vci=0x8000 + rng.randrange(0x1000),
                    payload=bytes(CELL_PAYLOAD_SIZE), last=True)
