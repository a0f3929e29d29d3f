"""Incoming-message demultiplexing.

The NI (or the in-kernel service routine) maps each incoming message tag
to the destination endpoint and the channel identifier the application
registered — U-Net's core multiplexing function.  Unknown tags are
counted and dropped, never delivered across protection boundaries.

Two table implementations share one contract:

* :class:`DemuxTable` — the original flat dict, fine for tens of
  endpoints, but teardown (:meth:`DemuxTable.unregister_endpoint`) scans
  the whole table, so a churn of short-lived tenants makes endpoint
  destruction O(total rows) — quadratic over a tenant population.
* :class:`ShardedDemux` — a radix-sharded table with a reverse index
  (endpoint -> its tags) and per-tenant row accounting.  Lookup hashes
  the tag to one shard; teardown walks only the dying endpoint's own
  rows.  This is the shape a multi-tenant host needs: thousands of
  endpoints arriving and leaving without the shared demux path becoming
  the bottleneck ("keep the shared path cheap enough that isolation
  machinery doesn't eat the fast path").

Both speak the shared ``drop_stats()`` vocabulary
(:data:`repro.core.endpoint.DROP_COUNTERS`); the demux owns exactly one
class — ``unknown_tag_drops`` — because unknown tags have no endpoint
(and no tenant) to attribute them to.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .endpoint import DROP_COUNTERS, Endpoint

__all__ = ["DemuxTable", "ShardedDemux"]

#: what a lookup reads where no shard exists yet
_NO_ROWS: Mapping[Any, Tuple[Endpoint, int]] = MappingProxyType({})


class DemuxTable:
    """Tag -> (endpoint, channel_id) table maintained by the OS service."""

    def __init__(self, name: str = "demux") -> None:
        self.name = name
        self._table: Dict[Any, Tuple[Endpoint, int]] = {}
        self.unknown_tag_drops = 0
        #: optional hook ``observer(rx_tag)`` fired on unknown-tag drops
        #: (the one drop class no endpoint can own); see conformance
        self.observer = None

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, rx_tag: Any) -> bool:
        """Membership probe for control paths: unlike :meth:`lookup`, a
        miss is not an arriving PDU and books no drop."""
        return rx_tag in self._table

    def register(self, rx_tag: Any, endpoint: Endpoint, channel_id: int) -> None:
        if rx_tag in self._table:
            raise KeyError(f"{self.name}: tag {rx_tag!r} already registered")
        self._table[rx_tag] = (endpoint, channel_id)

    def unregister(self, rx_tag: Any) -> None:
        self._table.pop(rx_tag, None)

    def unregister_endpoint(self, endpoint: Endpoint) -> int:
        """Remove every row routing to ``endpoint`` (teardown); returns
        how many were removed."""
        dead = [tag for tag, (ep, _ch) in self._table.items() if ep is endpoint]
        for tag in dead:
            del self._table[tag]
        return len(dead)

    def lookup(self, rx_tag: Any) -> Optional[Tuple[Endpoint, int]]:
        """Destination for ``rx_tag``; None (and a drop count) if unknown."""
        entry = self._table.get(rx_tag)
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


class ShardedDemux(DemuxTable):
    """Radix-sharded demux table for multi-tenant endpoint populations.

    Rows live in ``1 << radix_bits`` shards selected by hashing the tag
    (a shard exists from its first row on, so an idle NI carries none);
    a reverse index maps each endpoint to the set of tags routing to it,
    so :meth:`unregister_endpoint` is O(that endpoint's rows) instead of
    O(every row on the host).  Per-tenant row counts are maintained
    incrementally for the admission and health layers.

    The class keeps the exact :class:`DemuxTable` API (``register`` /
    ``unregister`` / ``unregister_endpoint`` / ``lookup`` / ``observer``
    / ``drop_stats`` / ``len``) so every substrate backend can adopt it
    without data-path changes.
    """

    def __init__(self, name: str = "demux", radix_bits: int = 6) -> None:
        super().__init__(name)
        if not 0 <= radix_bits <= 16:
            raise ValueError("radix_bits must be in [0, 16]")
        self.radix_bits = radix_bits
        self._mask = (1 << radix_bits) - 1
        #: shard index -> rows, created by the first row that hashes there
        self._shards: Dict[int, Dict[Any, Tuple[Endpoint, int]]] = {}
        #: reverse index: endpoint -> the set of tags routing to it
        self._tags_by_endpoint: Dict[Endpoint, set] = {}
        #: live row count per tenant name (untenanted rows under "")
        self._rows_by_tenant: Dict[str, int] = {}
        self._size = 0
        # the flat-table dict is unused; drop the reference so a bug that
        # bypasses the sharded paths fails loudly instead of splitting rows
        del self._table

    # ----------------------------------------------------------- internals
    def _shard_of(self, rx_tag: Any) -> Mapping[Any, Tuple[Endpoint, int]]:
        return self._shards.get(hash(rx_tag) & self._mask, _NO_ROWS)

    @staticmethod
    def _tenant_of(endpoint: Endpoint) -> str:
        return getattr(endpoint, "tenant", "") or ""

    def _account(self, endpoint: Endpoint, delta: int) -> None:
        tenant = self._tenant_of(endpoint)
        rows = self._rows_by_tenant.get(tenant, 0) + delta
        if rows:
            self._rows_by_tenant[tenant] = rows
        else:
            self._rows_by_tenant.pop(tenant, None)

    # ----------------------------------------------------------- table API
    def __len__(self) -> int:
        return self._size

    def __contains__(self, rx_tag: Any) -> bool:
        return rx_tag in self._shard_of(rx_tag)

    def register(self, rx_tag: Any, endpoint: Endpoint, channel_id: int) -> None:
        shard = self._shards.setdefault(hash(rx_tag) & self._mask, {})
        if rx_tag in shard:
            raise KeyError(f"{self.name}: tag {rx_tag!r} already registered")
        shard[rx_tag] = (endpoint, channel_id)
        self._tags_by_endpoint.setdefault(endpoint, set()).add(rx_tag)
        self._account(endpoint, +1)
        self._size += 1

    def unregister(self, rx_tag: Any) -> None:
        entry = self._shards.get(hash(rx_tag) & self._mask, {}).pop(rx_tag, None)
        if entry is None:
            return
        endpoint = entry[0]
        tags = self._tags_by_endpoint.get(endpoint)
        if tags is not None:
            tags.discard(rx_tag)
            if not tags:
                del self._tags_by_endpoint[endpoint]
        self._account(endpoint, -1)
        self._size -= 1

    def unregister_endpoint(self, endpoint: Endpoint) -> int:
        """Teardown via the reverse index: touches only this endpoint's
        rows, not the whole host table."""
        tags = self._tags_by_endpoint.pop(endpoint, None)
        if not tags:
            return 0
        for tag in tags:
            del self._shards[hash(tag) & self._mask][tag]
        removed = len(tags)
        self._account(endpoint, -removed)
        self._size -= removed
        return removed

    def lookup(self, rx_tag: Any) -> Optional[Tuple[Endpoint, int]]:
        entry = self._shard_of(rx_tag).get(rx_tag)
        if entry is None:
            self.unknown_tag_drops += 1
            if self.observer is not None:
                self.observer(rx_tag)
        return entry

    # ---------------------------------------------------------- accounting
    def tenant_rows(self) -> Dict[str, int]:
        """Live demux rows per tenant (copy; untenanted rows under "")."""
        return dict(self._rows_by_tenant)

    def endpoint_rows(self, endpoint: Endpoint) -> int:
        """How many rows currently route to ``endpoint``."""
        return len(self._tags_by_endpoint.get(endpoint, ()))

    def clear(self) -> None:
        """Drop every row (the NI is going away); the drop count stays."""
        self._shards.clear()
        self._tags_by_endpoint.clear()
        self._rows_by_tenant.clear()
        self._size = 0

    def shard_load(self) -> List[int]:
        """Row count per shard (the radix balance, for telemetry)."""
        return [len(self._shards.get(index, ())) for index in range(self._mask + 1)]
