"""Active Messages wire protocol.

Messages are classic Active Messages (von Eicken et al., ISCA '92):
a handler identifier, four word-size arguments, and an optional data
block.  On top of U-Net — which itself offers no retransmission or flow
control (Section 3.1) — every data packet carries a sequence number and
a cumulative acknowledgement; the sender keeps a go-back-N window.

When the receiver-credit extension is enabled (``AmConfig.credit_flow``)
a packet may additionally advertise the sender's *receive* capacity.
The advertisement rides behind a flag bit in the type byte plus a
two-byte credit word between header and data, so the classic wire
format — and every byte the calibrated benchmarks see — is unchanged
when the extension is off.

The crash-recovery extension (``AmConfig.recovery``) follows the same
pattern: an :data:`EPOCH_FLAG` bit in the type byte announces a
four-byte *incarnation epoch* field (after the credit word when both
are present) holding two 16-bit values — the sender's own epoch and an
echo of the destination's epoch as the sender knows it.  Both halves
are needed to fence sequence-number aliasing across a restart: the
sender half rejects traffic *from* a dead incarnation, and the echo
half rejects traffic *addressed to* a dead incarnation (a surviving
peer's epoch never changes, so only the echo distinguishes its
pre-crash in-flight packets from post-reconnect ones).  Receivers count
fenced packets as the typed ``stale_epoch`` drop class.  Two handshake
packet types, :data:`TYPE_HELLO` and :data:`TYPE_HELLO_ACK`, let a
restarted endpoint re-establish a channel: both carry the epoch pair
plus the sender's receive horizon (the next sequence number it will
accept) in the ``ack`` field.

The selective-acknowledgment extension (``AmConfig.ack_mode="sack"``)
rides a third flag bit: a five-byte versioned SACK block (one version
byte, then a 32-bit bitmap) after the epoch field.  Bit *i* of the
bitmap reports that the receiver holds sequence number ``ack + 1 + i``
out of order — the cumulative ``ack`` field stays authoritative for
everything below it, so a receiver that never reorders emits an empty
bitmap and the protocol degenerates to the classic cumulative scheme.

The ECN-style congestion extension (``AmConfig.congestion="ecn"``)
uses the last two flag bits and carries no body bytes at all:
:data:`ECN_CE_FLAG` is *congestion experienced*, set in flight by a
congested queue via :func:`mark_ce` (no re-encode needed — the bit
lives in the first byte); :data:`ECN_ECHO_FLAG` is the receiver's echo
of a mark back to the sender, which backs off before loss occurs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "Packet",
    "encode",
    "decode",
    "HEADER_SIZE",
    "CREDIT_FLAG",
    "CREDIT_SIZE",
    "MAX_CREDIT",
    "EPOCH_FLAG",
    "EPOCH_SIZE",
    "EPOCH_MOD",
    "epoch_newer",
    "SACK_FLAG",
    "SACK_SIZE",
    "SACK_VERSION",
    "SACK_BITMAP_BITS",
    "ECN_CE_FLAG",
    "ECN_ECHO_FLAG",
    "mark_ce",
    "TYPE_REQUEST",
    "TYPE_REPLY",
    "TYPE_ACK",
    "TYPE_HELLO",
    "TYPE_HELLO_ACK",
    "SEQ_MOD",
    "seq_lt",
    "seq_leq",
    "seq_add",
    "peek_type_seq",
]

#: type, handler, seq, ack, req_seq, 4 word args, data length
_HEADER_FMT = "!BBHHH4IH"
HEADER_SIZE = struct.calcsize(_HEADER_FMT)

TYPE_REQUEST = 1
TYPE_REPLY = 2
TYPE_ACK = 3
#: reconnect handshake: "I am incarnation E; my receive horizon is A"
TYPE_HELLO = 4
#: handshake answer, same payload semantics as TYPE_HELLO
TYPE_HELLO_ACK = 5

#: type-byte flag: a two-byte credit advertisement follows the header
CREDIT_FLAG = 0x80
CREDIT_SIZE = struct.calcsize("!H")
#: largest advertisable credit (the wire word is 16 bits)
MAX_CREDIT = 0xFFFF

#: type-byte flag: a four-byte incarnation-epoch field follows the
#: header (after the credit word when both extensions are on): sender
#: epoch then destination-epoch echo, two 16-bit words
EPOCH_FLAG = 0x40
EPOCH_SIZE = struct.calcsize("!HH")
#: 16-bit epoch space; compared circularly like sequence numbers
EPOCH_MOD = 1 << 16

#: type-byte flag: a five-byte versioned SACK block follows the header
#: (after credit and epoch when present): one version byte, then a
#: 32-bit bitmap whose bit *i* acknowledges ``ack + 1 + i``
SACK_FLAG = 0x20
SACK_SIZE = struct.calcsize("!BI")
#: current SACK block wire version; decoders reject anything else
SACK_VERSION = 1
#: width of the SACK bitmap — the largest expressible receive horizon
SACK_BITMAP_BITS = 32

#: type-byte flag: congestion experienced.  Set *in flight* by a
#: congested queue (see :func:`mark_ce`); carries no body bytes.
ECN_CE_FLAG = 0x10
#: type-byte flag: receiver's echo of a congestion mark back to the
#: sender; carries no body bytes
ECN_ECHO_FLAG = 0x08

_FLAG_MASK = CREDIT_FLAG | EPOCH_FLAG | SACK_FLAG | ECN_CE_FLAG | ECN_ECHO_FLAG

#: 16-bit sequence space; windows must stay below half of it
SEQ_MOD = 1 << 16
_HALF = SEQ_MOD // 2


def seq_add(seq: int, n: int) -> int:
    return (seq + n) % SEQ_MOD


def seq_lt(a: int, b: int) -> bool:
    """True if ``a`` precedes ``b`` in the circular sequence space."""
    return (b - a) % SEQ_MOD < _HALF and a != b


def seq_leq(a: int, b: int) -> bool:
    return a == b or seq_lt(a, b)


def epoch_newer(a: int, b: int) -> bool:
    """True if incarnation ``a`` is strictly newer than ``b``.

    Epochs live in the same 16-bit circular space as sequence numbers;
    an endpoint would have to restart 32767 times within one peer's
    memory of it to alias.

    >>> epoch_newer(1, 0), epoch_newer(0, 1), epoch_newer(3, 3)
    (True, False, False)
    >>> epoch_newer(0, EPOCH_MOD - 1)
    True
    """
    return seq_lt(b % EPOCH_MOD, a % EPOCH_MOD)


@dataclass
class Packet:
    """One Active Messages packet."""

    type: int
    handler: int = 0
    seq: int = 0
    #: cumulative acknowledgement: the next sequence number expected
    ack: int = 0
    #: for replies: the sequence number of the request being answered
    req_seq: int = 0
    args: Tuple[int, int, int, int] = (0, 0, 0, 0)
    data: bytes = b""
    #: receive-capacity advertisement (credit extension); None = absent
    credit: Optional[int] = None
    #: sender incarnation epoch (recovery extension); None = absent,
    #: semantically equivalent to epoch 0 (the first incarnation)
    epoch: Optional[int] = None
    #: echo of the destination's incarnation epoch as the sender knows
    #: it ("this packet is addressed to incarnation E"); only on the
    #: wire when ``epoch`` is, as the second half of the epoch field
    peer_epoch: Optional[int] = None
    #: SACK bitmap over the receive horizon (bit i acknowledges
    #: ``ack + 1 + i``); None = no SACK block on the wire
    sack_bits: Optional[int] = None
    #: congestion experienced: set in flight by a congested queue
    ce: bool = False
    #: echo of a congestion mark from receiver back to sender
    ece: bool = False

    def __post_init__(self) -> None:
        if len(self.args) != 4:
            args = tuple(self.args) + (0,) * (4 - len(self.args))
            self.args = args[:4]


def encode(packet: Packet) -> bytes:
    """Serialize ``packet`` for the wire.

    >>> p = Packet(type=TYPE_REQUEST, handler=7, seq=3, args=(1, 2), data=b"hi")
    >>> q = decode(encode(p))
    >>> (q.handler, q.seq, q.args, q.data)
    (7, 3, (1, 2, 0, 0), b'hi')

    A credit advertisement survives the round trip and costs two bytes:

    >>> c = decode(encode(Packet(type=TYPE_ACK, credit=9)))
    >>> (c.type, c.credit)
    (3, 9)
    >>> len(encode(Packet(type=TYPE_ACK, credit=9))) - len(encode(Packet(type=TYPE_ACK)))
    2

    So does an incarnation-epoch pair, alone or combined with credit:

    >>> e = decode(encode(Packet(type=TYPE_HELLO, ack=5, epoch=2, peer_epoch=1)))
    >>> (e.type, e.ack, e.epoch, e.peer_epoch)
    (4, 5, 2, 1)
    >>> both = decode(encode(Packet(type=TYPE_REQUEST, credit=7, epoch=1)))
    >>> (both.credit, both.epoch, both.peer_epoch)
    (7, 1, 0)

    A SACK block costs five bytes; the ECN bits cost nothing:

    >>> s = decode(encode(Packet(type=TYPE_ACK, ack=4, sack_bits=0b101, ece=True)))
    >>> (s.ack, s.sack_bits, s.ce, s.ece)
    (4, 5, False, True)
    >>> len(encode(Packet(type=TYPE_ACK, sack_bits=0))) - len(encode(Packet(type=TYPE_ACK)))
    5
    """
    wire_type = packet.type
    credit = b""
    if packet.credit is not None:
        wire_type |= CREDIT_FLAG
        credit = struct.pack("!H", min(max(packet.credit, 0), MAX_CREDIT))
    epoch = b""
    if packet.epoch is not None:
        wire_type |= EPOCH_FLAG
        epoch = struct.pack("!HH", packet.epoch % EPOCH_MOD,
                            (packet.peer_epoch or 0) % EPOCH_MOD)
    sack = b""
    if packet.sack_bits is not None:
        wire_type |= SACK_FLAG
        sack = struct.pack("!BI", SACK_VERSION, packet.sack_bits & 0xFFFFFFFF)
    if packet.ce:
        wire_type |= ECN_CE_FLAG
    if packet.ece:
        wire_type |= ECN_ECHO_FLAG
    header = struct.pack(
        _HEADER_FMT,
        wire_type,
        packet.handler,
        packet.seq,
        packet.ack,
        packet.req_seq,
        *(a & 0xFFFFFFFF for a in packet.args),
        len(packet.data),
    )
    return header + credit + epoch + sack + packet.data


def mark_ce(raw: bytes) -> bytes:
    """Set the congestion-experienced bit on an encoded wire message.

    The CE flag lives in the first byte, so a congested queue can mark
    a message in flight without decoding it.  (On the ATM substrate the
    AAL5 CRC covers the payload, so the marker there must re-segment —
    see ``repro.atm.cells.CellWire.rewrite``; frames and datagrams can
    be marked in place.)

    >>> raw = encode(Packet(type=TYPE_REQUEST, seq=9))
    >>> decode(mark_ce(raw)).ce
    True
    >>> peek_type_seq(mark_ce(raw)) == peek_type_seq(raw)
    True
    """
    if not raw:
        raise ValueError("cannot CE-mark an empty message")
    return bytes([raw[0] | ECN_CE_FLAG]) + raw[1:]


def peek_type_seq(raw: bytes) -> Optional[Tuple[int, int]]:
    """Read ``(type, seq)`` from a wire message's header, if present.

    Needs only the first ``HEADER_SIZE`` bytes, so it works on the first
    cell of a segmented AAL5 PDU (the AM header always fits one cell) —
    that is what lets a fault schedule identify a packet on either
    substrate without reassembling it.  Extension flags are stripped.
    Returns None when ``raw`` is too short to hold a header.
    """
    if len(raw) < HEADER_SIZE:
        return None
    ptype, _handler, seq = struct.unpack("!BBH", raw[:4])
    return ptype & ~_FLAG_MASK, seq


def decode(raw: bytes) -> Packet:
    """Parse a wire message back into a :class:`Packet`."""
    if len(raw) < HEADER_SIZE:
        raise ValueError(f"short AM packet: {len(raw)} bytes")
    ptype, handler, seq, ack, req_seq, a0, a1, a2, a3, dlen = struct.unpack(
        _HEADER_FMT, raw[:HEADER_SIZE]
    )
    offset = HEADER_SIZE
    credit: Optional[int] = None
    if ptype & CREDIT_FLAG:
        if len(raw) < offset + CREDIT_SIZE:
            raise ValueError("AM packet credit word truncated")
        (credit,) = struct.unpack("!H", raw[offset : offset + CREDIT_SIZE])
        offset += CREDIT_SIZE
    epoch: Optional[int] = None
    peer_epoch: Optional[int] = None
    if ptype & EPOCH_FLAG:
        if len(raw) < offset + EPOCH_SIZE:
            raise ValueError("AM packet epoch field truncated")
        epoch, peer_epoch = struct.unpack("!HH", raw[offset : offset + EPOCH_SIZE])
        offset += EPOCH_SIZE
    sack_bits: Optional[int] = None
    if ptype & SACK_FLAG:
        if len(raw) < offset + SACK_SIZE:
            raise ValueError("AM packet SACK block truncated")
        version, sack_bits = struct.unpack("!BI", raw[offset : offset + SACK_SIZE])
        if version != SACK_VERSION:
            raise ValueError(f"unknown SACK block version {version}")
        offset += SACK_SIZE
    ce = bool(ptype & ECN_CE_FLAG)
    ece = bool(ptype & ECN_ECHO_FLAG)
    ptype &= ~_FLAG_MASK
    data = raw[offset : offset + dlen]
    if len(data) != dlen:
        raise ValueError("AM packet data truncated")
    return Packet(type=ptype, handler=handler, seq=seq, ack=ack, req_seq=req_seq,
                  args=(a0, a1, a2, a3), data=data, credit=credit,
                  epoch=epoch, peer_epoch=peer_epoch,
                  sack_bits=sack_bits, ce=ce, ece=ece)
