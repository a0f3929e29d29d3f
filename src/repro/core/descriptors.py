"""U-Net message descriptors.

Applications communicate with the network interface through descriptors
pushed onto the endpoint's send/receive/free queues (Section 3.1):

* a :class:`SendDescriptor` names the channel and the buffer(s) holding
  the composed message;
* a :class:`RecvDescriptor` names the channel and the buffer(s) the
  message landed in — or, for small messages, carries the entire payload
  inline in the descriptor itself (the small-message optimization that
  "avoids buffer management overheads and can improve the round-trip
  latency substantially");
* free-queue entries are bare buffer indices the application donates for
  incoming data.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = ["SendDescriptor", "RecvDescriptor", "SMALL_MESSAGE_MAX"]

#: Threshold for the small-message receive optimization on U-Net/FE
#: ("small messages (under 64 bytes) are copied directly into the U-Net
#: receive descriptor itself", Section 4.3.3).  U-Net/ATM special-cases
#: single-cell messages instead (<= 40 bytes of payload); the ATM backend
#: applies its own cell-derived threshold.
SMALL_MESSAGE_MAX = 64


class SendDescriptor:
    """An entry on an endpoint's send queue.

    ``segments`` lists ``(buffer_index, length)`` pairs; multi-segment
    descriptors model the DC21140's chained-buffer PDUs.  Built once per
    message sent, so slotted by hand; it validates, compares and prints
    as a dataclass would.
    """

    __slots__ = ("channel_id", "segments", "completed")

    def __init__(self, channel_id: int, segments: List[Tuple[int, int]]) -> None:
        if not segments:
            raise ValueError("send descriptor needs at least one segment")
        for _idx, length in segments:
            if length < 0:
                raise ValueError("negative segment length")
        self.channel_id = channel_id
        self.segments = segments
        #: set by the NIC/kernel when transmission has been handed to the
        #: wire, letting the application reclaim the buffers.
        self.completed = False

    @property
    def length(self) -> int:
        return sum(length for _idx, length in self.segments)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.channel_id, self.segments, self.completed)
                == (other.channel_id, other.segments, other.completed))

    __hash__ = None  # mutable and compared by value

    def __repr__(self) -> str:
        return (f"SendDescriptor(channel_id={self.channel_id!r}, "
                f"segments={self.segments!r}, completed={self.completed!r})")


class RecvDescriptor:
    """An entry on an endpoint's receive queue.

    Exactly one of ``inline`` (small-message optimization) or ``segments``
    is populated.  Slotted by hand like :class:`SendDescriptor`.
    """

    __slots__ = ("channel_id", "length", "inline", "segments")

    def __init__(self, channel_id: int, length: int, inline: Optional[bytes] = None,
                 segments: Optional[List[Tuple[int, int]]] = None) -> None:
        if segments is None:
            segments = []
        if inline is not None:
            if segments:
                raise ValueError("descriptor cannot be both inline and buffer-borne")
            if len(inline) != length:
                raise ValueError("inline payload length mismatch")
        elif not segments and length > 0:
            raise ValueError("non-empty message needs inline payload or buffers")
        self.channel_id = channel_id
        self.length = length
        #: payload carried directly in the descriptor (small messages)
        self.inline = inline
        #: (buffer_index, length) pairs for buffer-borne messages
        self.segments = segments

    @property
    def is_inline(self) -> bool:
        return self.inline is not None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.channel_id, self.length, self.inline, self.segments)
                == (other.channel_id, other.length, other.inline, other.segments))

    __hash__ = None  # mutable and compared by value

    def __repr__(self) -> str:
        return (f"RecvDescriptor(channel_id={self.channel_id!r}, length={self.length!r}, "
                f"inline={self.inline!r}, segments={self.segments!r})")
