"""Bulk transfers over Active Messages.

Large Split-C operations (the "large message" benchmark variants, bulk
puts/gets) move more data than one packet carries.  A bulk transfer
fragments the block into maximal packets addressed to a reassembly
handler and completes when the receiver has every fragment (the last
fragment is answered with a reply).
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional, Tuple

from .am import AmEndpoint, RequestContext

__all__ = ["BulkSender", "BulkReceiver", "BULK_FRAGMENT_HANDLER"]

#: conventional handler id used for bulk fragments
BULK_FRAGMENT_HANDLER = 0xB0


class _IncomingTransfer:
    __slots__ = ("buffer", "received", "total")

    def __init__(self, total: int) -> None:
        self.buffer = bytearray(total)
        self.received = 0
        self.total = total


class BulkReceiver:
    """Reassembles incoming bulk transfers on one AM endpoint.

    ``on_complete(src_node, tag, data)`` runs when a transfer finishes.
    """

    def __init__(
        self,
        am: AmEndpoint,
        on_complete: Callable[[int, int, bytes], None],
    ) -> None:
        self.am = am
        self.on_complete = on_complete
        self._incoming: Dict[Tuple[int, int], _IncomingTransfer] = {}
        am.register_handler(BULK_FRAGMENT_HANDLER, self._on_fragment)

    def _on_fragment(self, ctx: RequestContext) -> Optional[Generator]:
        tag, offset, total, flags = ctx.args
        key = (ctx.src_node, tag)
        transfer = self._incoming.get(key)
        if transfer is None:
            transfer = _IncomingTransfer(total)
            self._incoming[key] = transfer
        transfer.buffer[offset : offset + len(ctx.data)] = ctx.data
        transfer.received += len(ctx.data)
        if transfer.received >= transfer.total:
            del self._incoming[key]
            self.on_complete(ctx.src_node, tag, bytes(transfer.buffer))
            if flags & 1:  # sender asked for a completion reply
                return ctx.reply(args=(tag, 0, 0, 0))
        return None


class BulkSender:
    """Sends bulk blocks from one AM endpoint."""

    def __init__(self, am: AmEndpoint) -> None:
        self.am = am
        self._next_tag = 0

    def send(self, dest: int, data: bytes, want_reply: bool = True) -> Generator:
        """Process: transfer ``data`` to ``dest``.

        With ``want_reply`` the process completes only once the receiver
        has reassembled the whole block; otherwise it completes when the
        last fragment has been handed to U-Net.
        """
        tag = self._next_tag
        self._next_tag = (self._next_tag + 1) % (1 << 30)
        max_data = self.am.max_data
        total = len(data)
        offsets = list(range(0, total, max_data)) or [0]
        for index, offset in enumerate(offsets):
            chunk = data[offset : offset + max_data]
            is_last = index == len(offsets) - 1
            flags = 1 if (is_last and want_reply) else 0
            args = (tag, offset, total, flags)
            if is_last and want_reply:
                yield from self.am.rpc(dest, BULK_FRAGMENT_HANDLER, args, chunk)
            else:
                yield from self.am.request(dest, BULK_FRAGMENT_HANDLER, args, chunk)
        return tag
