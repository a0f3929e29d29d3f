"""One telemetry plane: counters declared once, read by one registry.

A class names what it counts in a ``COUNTERS`` tuple: plain attributes
it increments where the work happens, or properties computed when read
(a gauge — a link's ``queued``, a pool's ``free_count``).  It names what
it is made of in ``PARTS``: attributes holding another declared object,
a list or dict of them, or None.  Nothing here runs until somebody
reads, so counting costs the counted path no call and no heap entry
beyond the increment it always paid.

:func:`read` is one object's counters under their declared names;
:func:`collect` walks the declared parts from a root into one flat dict
with hierarchical keys — ``network/hosts/3/backend/endpoints/0/
recv_queue_drops``, ``ams/3/peers/0/retransmissions`` — and
:func:`total` sums one counter over everything below a root.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["read", "collect", "total"]


def read(obj) -> Dict[str, Any]:
    """``obj``'s declared counters, in declaration order."""
    return {name: getattr(obj, name) for name in type(obj).COUNTERS}


def collect(root) -> Dict[str, Any]:
    """Every counter at or below ``root``, keyed by its path of parts.

    ``root`` is a declared object, or a list or dict of them: list
    members are keyed by index, dict members by key.  An object that
    declares nothing (an attachment with no counters, a part not built
    yet) contributes nothing."""
    out: Dict[str, Any] = {}
    _walk(root, "", out)
    return out


def _walk(value, prefix: str, out: Dict[str, Any]) -> None:
    if isinstance(value, dict):
        members = value.items()
    elif isinstance(value, (list, tuple)):
        members = enumerate(value)
    else:
        cls = type(value)
        for name in getattr(cls, "COUNTERS", ()):
            out[prefix + name] = getattr(value, name)
        for name in getattr(cls, "PARTS", ()):
            _walk(getattr(value, name), f"{prefix}{name}/", out)
        return
    for key, member in members:
        _walk(member, f"{prefix}{key}/", out)


def total(root, name: str):
    """Counter ``name`` summed over everything :func:`collect` finds
    at or below ``root``."""
    return sum(value for key, value in collect(root).items()
               if key.rpartition("/")[2] == name)
