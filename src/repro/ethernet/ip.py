"""IPv4/UDP encapsulation for U-Net/FE messages (Section 4.4.3).

"The use of Ethernet MAC addresses and port IDs to address endpoints
does not allow messages to traverse multiple switches or IP routers.
One solution would be to use a simple IPv4 encapsulation for U-Net
messages; however, this would add considerable communication overhead."

This module implements that proposal so the overhead can be measured:
a real 20-byte IPv4 header plus an 8-byte UDP header (checksummed for
real), a software-router model that forwards between Ethernet segments,
and a routed-topology builder.  The ablation benchmark quantifies the
paper's "considerable overhead" claim.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..sim import Simulator, Store
from .frames import ETH_MAX_PAYLOAD, UNET_FE_HEADER_SIZE, EthernetFrame, MacAddress
from .switch import EthernetSwitch

__all__ = [
    "IpTag",
    "IPV4_HEADER_SIZE",
    "UDP_HEADER_SIZE",
    "IP_ENCAP_OVERHEAD",
    "UNET_FE_IP_MAX_PDU",
    "internet_checksum",
    "build_ipv4_udp",
    "parse_ipv4_udp",
    "IpHeaderError",
    "IpRouter",
]

IPV4_HEADER_SIZE = 20
UDP_HEADER_SIZE = 8
IP_ENCAP_OVERHEAD = IPV4_HEADER_SIZE + UDP_HEADER_SIZE
#: encapsulation shrinks the largest U-Net PDU accordingly
UNET_FE_IP_MAX_PDU = ETH_MAX_PAYLOAD - UNET_FE_HEADER_SIZE - IP_ENCAP_OVERHEAD

_TTL = 64
_PROTO_UDP = 17


class IpHeaderError(Exception):
    """Malformed or corrupted IP/UDP header."""


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones'-complement checksum.

    >>> hex(internet_checksum(bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])))
    '0x220d'
    >>> datagram = build_ipv4_udp(0x0a000001, 0x0a000102, 7, 9, b"payload")
    >>> internet_checksum(datagram[:20])  # a valid header sums to zero
    0
    """
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def build_ipv4_udp(
    src_ip: int,
    dst_ip: int,
    src_port: int,
    dst_port: int,
    payload: bytes,
) -> bytes:
    """An IPv4+UDP datagram around ``payload``, checksummed for real."""
    total_length = IPV4_HEADER_SIZE + UDP_HEADER_SIZE + len(payload)
    header_wo_checksum = struct.pack(
        "!BBHHHBBH4s4s",
        0x45,  # version 4, IHL 5
        0,
        total_length,
        0,  # identification
        0,  # flags/fragment offset (U-Net never IP-fragments)
        _TTL,
        _PROTO_UDP,
        0,  # checksum placeholder
        src_ip.to_bytes(4, "big"),
        dst_ip.to_bytes(4, "big"),
    )
    checksum = internet_checksum(header_wo_checksum)
    ip_header = header_wo_checksum[:10] + checksum.to_bytes(2, "big") + header_wo_checksum[12:]
    udp_header = struct.pack("!HHHH", src_port, dst_port, UDP_HEADER_SIZE + len(payload), 0)
    return ip_header + udp_header + payload


def parse_ipv4_udp(datagram: bytes) -> Tuple[int, int, int, int, int, bytes]:
    """Validate and strip the headers.

    Returns (src_ip, dst_ip, src_port, dst_port, ttl, payload).
    Raises :class:`IpHeaderError` on any inconsistency.
    """
    if len(datagram) < IP_ENCAP_OVERHEAD:
        raise IpHeaderError("datagram shorter than IP+UDP headers")
    if internet_checksum(datagram[:IPV4_HEADER_SIZE]) != 0:
        raise IpHeaderError("IPv4 header checksum mismatch")
    version_ihl, _tos, total_length, _ident, _frag, ttl, proto, _csum = struct.unpack(
        "!BBHHHBBH", datagram[:12]
    )
    if version_ihl != 0x45:
        raise IpHeaderError(f"unsupported version/IHL {version_ihl:#x}")
    if proto != _PROTO_UDP:
        raise IpHeaderError(f"unexpected protocol {proto}")
    if total_length != len(datagram):
        raise IpHeaderError("IP total length disagrees with datagram size")
    src_ip = int.from_bytes(datagram[12:16], "big")
    dst_ip = int.from_bytes(datagram[16:20], "big")
    src_port, dst_port, udp_length, _udp_csum = struct.unpack(
        "!HHHH", datagram[IPV4_HEADER_SIZE : IPV4_HEADER_SIZE + UDP_HEADER_SIZE]
    )
    if udp_length != len(datagram) - IPV4_HEADER_SIZE:
        raise IpHeaderError("UDP length disagrees with datagram size")
    return src_ip, dst_ip, src_port, dst_port, ttl, datagram[IP_ENCAP_OVERHEAD:]


def _decrement_ttl(datagram: bytes) -> bytes:
    """Forwarding: TTL-1 and a recomputed header checksum."""
    ttl = datagram[8]
    if ttl <= 1:
        raise IpHeaderError("TTL expired")
    header = bytearray(datagram[:IPV4_HEADER_SIZE])
    header[8] = ttl - 1
    header[10:12] = b"\x00\x00"
    header[10:12] = internet_checksum(bytes(header)).to_bytes(2, "big")
    return bytes(header) + datagram[IPV4_HEADER_SIZE:]


@dataclass(frozen=True)
class IpTag:
    """Message tag for IPv4-encapsulated U-Net/FE channels."""

    dst_ip: int
    dst_udp: int
    src_ip: int
    src_udp: int
    #: MAC to put on the wire: the peer directly, or the router port
    next_hop_mac: MacAddress


@dataclass
class _RouterPort:
    switch: EthernetSwitch
    mac: MacAddress
    #: IP prefix served by this port: (network, mask)
    network: int
    mask: int


class IpRouter:
    """A mid-1990s software IP router between Ethernet segments.

    Each attached segment (switch) gets a router port with its own MAC
    and an IP prefix.  Frames addressed to the port MAC are parsed,
    routed by longest (here: only) prefix, and re-framed toward the
    destination host's MAC on the egress segment.  Per-packet forwarding
    cost is charged on the router CPU, which serializes all ports —
    exactly why the paper calls this path expensive.
    """

    COUNTERS = ("packets_forwarded", "drops_no_route", "drops_bad_header", "drops_ttl")

    def __init__(self, sim: Simulator, forward_us: float = 55.0) -> None:
        self.sim = sim
        self.forward_us = forward_us
        self._ports: Dict[int, _RouterPort] = {}
        self._links: Dict[int, object] = {}
        #: static ARP: IP -> (port index, MAC)
        self._arp: Dict[int, Tuple[int, MacAddress]] = {}
        self._work: Store = Store(sim, name="router.queue")
        self.packets_forwarded = 0
        self.drops_no_route = 0
        self.drops_bad_header = 0
        self.drops_ttl = 0
        sim.process(self._forwarding_engine(), name="router.cpu")

    def attach_segment(self, switch: EthernetSwitch, mac: MacAddress, network: int, mask: int) -> None:
        """Connect one router port to ``switch`` serving ``network``."""
        port = len(self._ports)
        link = switch.attach(mac)
        link.set_receiver(lambda frame, _port=port: self._on_frame(frame, _port))
        self._ports[port] = _RouterPort(switch=switch, mac=mac, network=network, mask=mask)
        self._links[port] = link

    def register_host(self, ip: int, mac: MacAddress) -> None:
        """Static ARP entry for a host (set up by the topology builder)."""
        for port, p in self._ports.items():
            if ip & p.mask == p.network:
                self._arp[ip] = (port, mac)
                return
        raise ValueError(f"no router port serves IP {ip:#010x}")

    def port_mac(self, segment_index: int) -> MacAddress:
        return self._ports[segment_index].mac

    def _on_frame(self, frame: EthernetFrame, port: int) -> None:
        if frame.dst_mac != self._ports[port].mac:
            return
        self._work.try_put(frame)

    def _forwarding_engine(self):
        while True:
            frame = yield self._work.get()
            yield self.forward_us
            try:
                _src, dst_ip, _sp, _dp, _ttl, _payload = parse_ipv4_udp(frame.payload)
            except IpHeaderError:
                self.drops_bad_header += 1
                continue
            route = self._arp.get(dst_ip)
            if route is None:
                self.drops_no_route += 1
                continue
            egress_port, dst_mac = route
            try:
                datagram = _decrement_ttl(frame.payload)
            except IpHeaderError:
                self.drops_ttl += 1
                continue
            out = EthernetFrame(
                dst_mac=dst_mac,
                src_mac=self._ports[egress_port].mac,
                dst_port=frame.dst_port,
                src_port=frame.src_port,
                payload=datagram,
            )
            self.packets_forwarded += 1
            link = self._links[egress_port]
            yield from link.transmit(out)
            if self.sim.peek() <= self.sim.now:
                yield 0.0  # queue behind same-instant peers (see DmaEngine.transfer)
