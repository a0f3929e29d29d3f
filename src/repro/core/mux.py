"""Incoming-message demultiplexing.

The NI (or the in-kernel service routine) maps each incoming message tag
to the destination endpoint and the channel identifier the application
registered — U-Net's core multiplexing function.  Unknown tags are
counted and dropped, never delivered across protection boundaries.

:class:`DemuxTable` is one flat dict for the lookup every arriving PDU
makes, on every substrate, plus a reverse index (endpoint -> its tags)
and per-tenant row counts kept up as rows come and go.  Teardown walks
only the dying endpoint's own rows, so a churn of thousands of
short-lived tenants never makes endpoint destruction O(rows on the
host), and the shared demux path stays one dict get ("keep the shared
path cheap enough that isolation machinery doesn't eat the fast path").

It speaks the shared ``drop_stats()`` vocabulary
(:data:`repro.core.endpoint.DROP_COUNTERS`); the demux owns exactly one
class — ``unknown_tag_drops`` — because unknown tags have no endpoint
(and no tenant) to attribute them to.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from .endpoint import DROP_COUNTERS, Endpoint

__all__ = ["DemuxTable"]


class DemuxTable:
    """Tag -> (endpoint, channel_id) table maintained by the OS service."""

    def __init__(self, name: str = "demux") -> None:
        self.name = name
        self._rows: Dict[Any, Tuple[Endpoint, int]] = {}
        #: reverse index: endpoint -> the set of tags routing to it
        self._tags_by_endpoint: Dict[Endpoint, set] = {}
        #: live row count per tenant name (untenanted rows under "")
        self._rows_by_tenant: Dict[str, int] = {}
        self.unknown_tag_drops = 0
        #: optional hook ``observer(rx_tag)`` fired on unknown-tag drops
        #: (the one drop class no endpoint can own); see conformance
        self.observer = None

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, rx_tag: Any) -> bool:
        """Membership probe for control paths: unlike :meth:`lookup`, a
        miss is not an arriving PDU and books no drop."""
        return rx_tag in self._rows

    def _account(self, endpoint: Endpoint, delta: int) -> None:
        tenant = getattr(endpoint, "tenant", "") or ""
        rows = self._rows_by_tenant.get(tenant, 0) + delta
        if rows:
            self._rows_by_tenant[tenant] = rows
        else:
            self._rows_by_tenant.pop(tenant, None)

    def register(self, rx_tag: Any, endpoint: Endpoint, channel_id: int) -> None:
        if rx_tag in self._rows:
            raise KeyError(f"{self.name}: tag {rx_tag!r} already registered")
        self._rows[rx_tag] = (endpoint, channel_id)
        self._tags_by_endpoint.setdefault(endpoint, set()).add(rx_tag)
        self._account(endpoint, +1)

    def unregister(self, rx_tag: Any) -> None:
        entry = self._rows.pop(rx_tag, None)
        if entry is None:
            return
        endpoint = entry[0]
        tags = self._tags_by_endpoint[endpoint]
        tags.discard(rx_tag)
        if not tags:
            del self._tags_by_endpoint[endpoint]
        self._account(endpoint, -1)

    def unregister_endpoint(self, endpoint: Endpoint) -> int:
        """Remove every row routing to ``endpoint`` (teardown) through
        the reverse index; returns how many were removed."""
        tags = self._tags_by_endpoint.pop(endpoint, ())
        for tag in tags:
            del self._rows[tag]
        if tags:
            self._account(endpoint, -len(tags))
        return len(tags)

    def lookup(self, rx_tag: Any) -> Optional[Tuple[Endpoint, int]]:
        """Destination for ``rx_tag``; None (and a drop count) if unknown."""
        entry = self._rows.get(rx_tag)
        if entry is None:
            self.unknown_tag_drops += 1
            if self.observer is not None:
                self.observer(rx_tag)
        return entry

    def drop_stats(self) -> dict:
        """Drop counters under the shared ``DROP_COUNTERS`` names."""
        stats = {name: 0 for name in DROP_COUNTERS}
        stats["unknown_tag_drops"] = self.unknown_tag_drops
        return stats

    # ---------------------------------------------------------- accounting
    def tenant_rows(self) -> Dict[str, int]:
        """Live demux rows per tenant (copy; untenanted rows under "")."""
        return dict(self._rows_by_tenant)

    def endpoint_rows(self, endpoint: Endpoint) -> int:
        """How many rows currently route to ``endpoint``."""
        return len(self._tags_by_endpoint.get(endpoint, ()))

    def clear(self) -> None:
        """Drop every row (the NI is going away); the drop count stays."""
        self._rows.clear()
        self._tags_by_endpoint.clear()
        self._rows_by_tenant.clear()
