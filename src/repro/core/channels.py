"""Communication channels and message tags.

A *communication channel* associates a pair of endpoints with a small
channel identifier; *message tags* (substrate-specific: VCIs for ATM,
MAC-address + one-byte U-Net port for Fast Ethernet) route outgoing
messages and demultiplex incoming ones (Section 3.1).  Channel creation
is an operating-system service: it validates the request, allocates the
tags, and registers them with the NI — applications never install tags
directly (protection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from .errors import ChannelError

__all__ = ["ChannelBinding", "AtmTag", "EthernetTag", "connect_pair"]


@dataclass(frozen=True)
class AtmTag:
    """ATM message tag: the VCI pair of a connection (Section 4.2.1)."""

    tx_vci: int
    rx_vci: int


@dataclass(frozen=True)
class EthernetTag:
    """U-Net/FE message tag: 48-bit MAC + one-byte port ID (Section 4.3.1)."""

    dst_mac: int
    dst_port: int
    src_mac: int
    src_port: int

    def __post_init__(self) -> None:
        for port in (self.dst_port, self.src_port):
            if not 0 <= port <= 0xFF:
                raise ChannelError(f"U-Net port ID {port} outside one byte")


@dataclass
class ChannelBinding:
    """Per-endpoint record of one registered channel."""

    channel_id: int
    tag: Any
    #: opaque peer description kept for diagnostics
    peer: Optional[str] = None
    messages_sent: int = 0
    messages_received: int = 0


def register_channel(endpoint, channel_id: int, tag: Any, peer: Optional[str] = None) -> ChannelBinding:
    """Install a channel binding on ``endpoint`` (OS-service side)."""
    if channel_id in endpoint.channels:
        raise ChannelError(f"channel {channel_id} already registered on endpoint {endpoint.id}")
    binding = ChannelBinding(channel_id=channel_id, tag=tag, peer=peer)
    endpoint.channels[channel_id] = binding
    return binding


def lookup_channel(endpoint, channel_id: int) -> ChannelBinding:
    try:
        return endpoint.channels[channel_id]
    except KeyError:
        raise ChannelError(f"channel {channel_id} not registered on endpoint {endpoint.id}") from None


def connect_pair(a, b, tag_a: Any, tag_b: Any, key_a: Any, key_b: Any) -> Tuple[int, int]:
    """The substrate-independent half of the OS channel service.

    ``a`` and ``b`` are application-side endpoints (anything carrying
    ``.endpoint``, ``.backend`` and ``.name``, see
    :class:`repro.core.api.UserEndpointBase`).  The substrate's network
    has already allocated the message tags — ``tag_a`` is what ``a``
    sends with, ``key_a`` is the demux key under which ``a``'s NI
    receives ``b``'s messages.  This hands out the next free channel id
    on each side, installs both bindings and both demux rows, and
    returns ``(channel_on_a, channel_on_b)``.
    """
    channel_a, channel_b = (len(user.endpoint.channels) for user in (a, b))
    register_channel(a.endpoint, channel_a, tag_a, peer=b.name)
    register_channel(b.endpoint, channel_b, tag_b, peer=a.name)
    a.backend.demux.register(key_a, a.endpoint, channel_a)
    b.backend.demux.register(key_b, b.endpoint, channel_b)
    return channel_a, channel_b
