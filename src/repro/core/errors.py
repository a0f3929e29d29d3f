"""U-Net error types."""

from __future__ import annotations

__all__ = [
    "UNetError",
    "ChannelError",
    "EndpointError",
    "InvalidDescriptorError",
    "ProtectionError",
    "MessageTooLarge",
    "PeerUnavailableError",
    "StaleEpochError",
    "AdmissionRejected",
    "ConfigError",
    "NoPathError",
]


class UNetError(Exception):
    """Base class for U-Net architecture errors."""


class EndpointError(UNetError):
    """Invalid endpoint operation (bad queue state, bad buffer)."""


class ChannelError(UNetError):
    """Unknown or mis-registered communication channel."""


class InvalidDescriptorError(EndpointError):
    """A descriptor pushed onto an endpoint queue is malformed (buffer
    index out of range, segment length negative or larger than the
    buffer).  Raised at ``post_send``/``donate_free_buffer`` time so a
    misbehaving application fails in its own system call instead of
    deep inside the NI firmware or kernel service routine."""


class ProtectionError(EndpointError):
    """An operation violated the protection boundaries U-Net enforces
    (e.g. sending on a channel not registered to the endpoint)."""


class MessageTooLarge(UNetError):
    """Message exceeds the substrate's maximum PDU."""


class PeerUnavailableError(UNetError):
    """The remote endpoint is dead or restarted: an in-flight or queued
    send cannot complete under the at-most-once contract.  Carries the
    message fate — the send was *abandoned*, not silently dropped — so
    callers can account for it rather than retry blindly."""

    def __init__(self, message: str = "peer unavailable", *,
                 peer: object = None, seq: object = None) -> None:
        super().__init__(message)
        self.peer = peer
        self.seq = seq


class AdmissionRejected(EndpointError):
    """Endpoint creation refused by admission control.

    The host is at capacity for the requesting tenant's QoS class.
    Raised at creation time —
    before any endpoint state exists — so the backend, not an endpoint,
    owns the matching ``admission_rejected_drops`` counter."""

    def __init__(self, message: str = "admission rejected", *,
                 tenant: str = "", qos: str = "", reason: str = "") -> None:
        super().__init__(message)
        self.tenant = tenant
        self.qos = qos
        self.reason = reason


class ConfigError(UNetError, ValueError):
    """A configuration object rejected its field values or their
    combination at construction time (negative window, unknown mode,
    two flow-control schemes fighting over the same window, ...).
    Subclasses :class:`ValueError` so call sites that predate the typed
    hierarchy — and tests written against them — keep working, while
    new code can catch the U-Net family."""

    def __init__(self, message: str, *, knob: str = "") -> None:
        super().__init__(message)
        self.knob = knob


class NoPathError(ChannelError, ValueError):
    """No usable switch path exists between two fabric attachment points.

    Raised both for topologies that were never connected and for pairs
    severed by trunk faults (``Topology.set_trunk``).  Subclasses
    :class:`ValueError` because the topology layer historically raised
    that for disconnected graphs — old call sites keep working."""

    def __init__(self, message: str, *, src: int = -1, dst: int = -1) -> None:
        super().__init__(message)
        self.src = src
        self.dst = dst


class StaleEpochError(UNetError):
    """An operation referenced a dead incarnation of an endpoint (e.g.
    completing a handle issued before the local endpoint crashed and
    restarted).  Wire-level stale traffic is fenced silently as the
    ``stale_epoch`` drop class; this error is for local API misuse."""
