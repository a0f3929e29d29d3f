"""Active Messages: reliable, flow-controlled RPC over U-Net."""

from .am import AmConfig, AmEndpoint, AmError, RequestContext
from .protocol import (
    EPOCH_MOD,
    HEADER_SIZE,
    SEQ_MOD,
    TYPE_ACK,
    TYPE_HELLO,
    TYPE_HELLO_ACK,
    TYPE_REPLY,
    TYPE_REQUEST,
    Packet,
    decode,
    encode,
    epoch_newer,
    seq_add,
    seq_leq,
    seq_lt,
)

__all__ = [
    "AmConfig",
    "AmEndpoint",
    "AmError",
    "RequestContext",
    "Packet",
    "encode",
    "decode",
    "HEADER_SIZE",
    "SEQ_MOD",
    "EPOCH_MOD",
    "TYPE_REQUEST",
    "TYPE_REPLY",
    "TYPE_ACK",
    "TYPE_HELLO",
    "TYPE_HELLO_ACK",
    "seq_lt",
    "seq_leq",
    "seq_add",
    "epoch_newer",
]
