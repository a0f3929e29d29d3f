"""Ethernet framing.

U-Net/FE message tags are a 48-bit MAC address plus a one-byte U-Net
port ID (Section 4.3.1).  The two port bytes (destination and source)
ride in the frame ahead of the user payload, which is why the maximum
U-Net/FE PDU is 1498 bytes of user data inside the 1500-byte Ethernet
payload, and why a 40-byte message becomes a 60-byte (minimum-size)
Ethernet frame: 14 bytes of Ethernet header + 46 bytes of padded
payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List

__all__ = [
    "EthernetFrame",
    "FrameWire",
    "MacAddress",
    "ETH_HEADER_SIZE",
    "ETH_CRC_SIZE",
    "ETH_MIN_PAYLOAD",
    "ETH_MAX_PAYLOAD",
    "ETH_PREAMBLE_BYTES",
    "ETH_IFG_BYTES",
    "CUT_THROUGH_BYTES",
    "UNET_FE_HEADER_SIZE",
    "UNET_FE_MAX_PDU",
    "COLLECTIVE_PORT",
    "wire_time_us",
]

ETH_HEADER_SIZE = 14
ETH_CRC_SIZE = 4
ETH_MIN_PAYLOAD = 46
ETH_MAX_PAYLOAD = 1500
ETH_PREAMBLE_BYTES = 8
ETH_IFG_BYTES = 12
#: what a cut-through switch reads before it starts forwarding
CUT_THROUGH_BYTES = ETH_PREAMBLE_BYTES + ETH_HEADER_SIZE

#: the two U-Net port bytes (destination, source) inside the payload
UNET_FE_HEADER_SIZE = 2
#: "1498 bytes, the maximum PDU supported by U-Net/FE" (Section 4.4.2)
UNET_FE_MAX_PDU = ETH_MAX_PAYLOAD - UNET_FE_HEADER_SIZE

#: U-Net port reserved for the NIC-resident collective engine: frames
#: addressed to it are consumed on the controller itself and never cross
#: the bus (port 0 is likewise reserved, for IP encapsulation)
COLLECTIVE_PORT = 0xFF

MacAddress = int  # 48-bit addresses kept as ints for cheap hashing


@dataclass
class EthernetFrame:
    """One Ethernet frame carrying a U-Net/FE message."""

    dst_mac: MacAddress
    src_mac: MacAddress
    dst_port: int
    src_port: int
    payload: bytes
    corrupted: bool = False

    def __post_init__(self) -> None:
        if len(self.payload) > UNET_FE_MAX_PDU:
            raise ValueError(f"payload of {len(self.payload)} bytes exceeds U-Net/FE PDU {UNET_FE_MAX_PDU}")
        for port in (self.dst_port, self.src_port):
            if not 0 <= port <= 0xFF:
                raise ValueError(f"U-Net port {port} outside one byte")

    @property
    def frame_payload_bytes(self) -> int:
        """Ethernet payload: the U-Net header plus the user data, padded."""
        return max(ETH_MIN_PAYLOAD, UNET_FE_HEADER_SIZE + len(self.payload))

    @property
    def frame_bytes(self) -> int:
        """Header-to-CRC frame size (what 'a 60-byte frame' counts)."""
        return ETH_HEADER_SIZE + self.frame_payload_bytes

    @property
    def wire_bytes(self) -> int:
        """Bytes of medium occupancy: ``frame_bytes`` plus preamble, CRC
        and the IFG, in one expression (every link a frame crosses reads it)."""
        return (ETH_PREAMBLE_BYTES + ETH_HEADER_SIZE + ETH_CRC_SIZE + ETH_IFG_BYTES
                + max(ETH_MIN_PAYLOAD, UNET_FE_HEADER_SIZE + len(self.payload)))


def wire_time_us(frame: EthernetFrame, rate_mbps: float = 100.0) -> float:
    """Medium occupancy time of ``frame`` at ``rate_mbps``.

    A 40-byte message rides a minimum-size 60-byte frame (the paper's
    Figure 3 caption):

    >>> f = EthernetFrame(dst_mac=1, src_mac=2, dst_port=1, src_port=1,
    ...                   payload=b"m" * 40)
    >>> f.frame_bytes
    60
    >>> round(wire_time_us(f), 2)  # + preamble, CRC, inter-frame gap
    6.72
    """
    return frame.wire_bytes * 8 / rate_mbps


class FrameWire:
    """U-Net/FE's wire as the fault layer sees it (``backend.wire``):
    every frame is a whole PDU, one AM packet in its payload."""

    @staticmethod
    def pdu(frame: EthernetFrame):
        return frame.src_mac, True

    @staticmethod
    def head(frame: EthernetFrame) -> bytes:
        return frame.payload

    @staticmethod
    def rewrite(frames: List[EthernetFrame], edit) -> List[EthernetFrame]:
        """Each frame with ``edit`` applied to its payload.  It stays
        CRC-clean: congestion marking is done by conforming switch
        hardware, not line noise.  A frame whose payload does not edit,
        or edits past the PDU limit, passes untouched.  Never raises."""
        out = []
        for frame in frames:
            try:
                out.append(replace(frame, payload=edit(frame.payload)))
            except ValueError:
                out.append(frame)
        return out

    @staticmethod
    def corrupt(frame: EthernetFrame, rng) -> EthernetFrame:
        """One payload byte flipped; the frame is flagged for the CRC checker."""
        body = bytearray(frame.payload)
        if body:
            body[rng.randrange(len(body))] ^= 0xFF
        return replace(frame, payload=bytes(body), corrupted=True)

    @staticmethod
    def forge(backend, rng) -> EthernetFrame:
        """A frame from a random MAC to a U-Net port nobody registered."""
        return EthernetFrame(dst_mac=backend.mac, src_mac=rng.randrange(1 << 48),
                             dst_port=0xFE, src_port=0xFE, payload=bytes(40))
