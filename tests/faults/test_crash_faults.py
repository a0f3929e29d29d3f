"""Content-addressed lifecycle faults: triggers and ordering."""

import pytest

from repro.am.protocol import TYPE_ACK, TYPE_HELLO, TYPE_REQUEST, Packet, encode
from repro.faults.crash import (
    CrashFault,
    EndpointLifecycle,
    LifecycleFault,
    LifecycleStage,
    RestartFault,
)
from repro.live.backend import FRAME_HEADER_SIZE, DatagramWire


def _wire(ptype: int, seq: int) -> bytes:
    return bytes(FRAME_HEADER_SIZE) + encode(Packet(type=ptype, seq=seq))


def _stage(events, fire):
    """A lifecycle stage on live datagrams: frame header, then the packet."""
    return LifecycleStage(events, DatagramWire, fire)


# ----------------------------------------------------------- fault objects
def test_lifecycle_fault_validation():
    with pytest.raises(ValueError):
        LifecycleFault("explode", "fwd", 0, 0)
    with pytest.raises(ValueError):
        LifecycleFault("crash", "sideways", 0, 0)
    with pytest.raises(ValueError):
        LifecycleFault("crash", "fwd", -1, 0)
    with pytest.raises(ValueError):
        LifecycleFault("restart", "rev", 0, -2)


def test_fault_dict_round_trip():
    for fault in (CrashFault("fwd", 3), RestartFault("fwd", 3, 2),
                  CrashFault("rev", 7, 1)):
        assert LifecycleFault.from_dict(fault.to_dict()) == fault


def test_crash_fault_defaults_to_first_occurrence():
    assert CrashFault("fwd", 5).occurrence == 0
    assert RestartFault("fwd", 5, 1).occurrence == 1


def test_duplicate_addresses_rejected():
    with pytest.raises(ValueError):
        _stage([CrashFault("fwd", 2), RestartFault("fwd", 2, 0)], lambda f, t: None)


# ---------------------------------------------------------------- triggers
def test_trigger_addresses_seq_and_occurrence():
    fired = []
    stage = _stage(
        [CrashFault("fwd", 1, occurrence=1)],
        lambda fault, now: fired.append((fault.kind, now)))
    out = []
    emit = lambda pdu, delay=0.0: out.append(pdu)

    stage.process(_wire(TYPE_REQUEST, 1), 10.0, emit)   # occurrence 0: no
    assert fired == []
    stage.process(_wire(TYPE_REQUEST, 1), 20.0, emit)   # occurrence 1: fire
    assert fired == [("crash", 20.0)]
    stage.process(_wire(TYPE_REQUEST, 1), 30.0, emit)   # occurrence 2: no
    assert fired == [("crash", 20.0)]
    assert len(out) == 3  # the trigger never perturbs the traffic


def test_control_traffic_never_triggers():
    fired = []
    stage = _stage([CrashFault("fwd", 0)],
                   lambda fault, now: fired.append(fault))
    emit = lambda pdu, delay=0.0: None
    # ACK and HELLO carry seq fields too; only data packets count
    stage.process(_wire(TYPE_ACK, 0), 1.0, emit)
    stage.process(_wire(TYPE_HELLO, 0), 2.0, emit)
    assert fired == []
    stage.process(_wire(TYPE_REQUEST, 0), 3.0, emit)
    assert len(fired) == 1


def test_header_size_strips_framing():
    fired = []
    stage = _stage([CrashFault("fwd", 4)],
                   lambda fault, now: fired.append(fault))
    stage.process(b"\x00" * 6 + encode(Packet(type=TYPE_REQUEST, seq=4)), 0.0,
                  lambda pdu, delay=0.0: None)
    assert len(fired) == 1


def test_fire_happens_before_emit():
    """The victim must be dead before the triggering packet is delivered:
    that packet is the first one the dead incarnation ignores."""
    order = []
    stage = _stage([CrashFault("fwd", 0)],
                   lambda fault, now: order.append("fire"))
    stage.process(_wire(TYPE_REQUEST, 0), 0.0,
                  lambda pdu, delay=0.0: order.append("emit"))
    assert order == ["fire", "emit"]


def test_reset_clears_occurrence_tracking():
    fired = []
    stage = _stage([CrashFault("fwd", 0)],
                   lambda fault, now: fired.append(now))
    emit = lambda pdu, delay=0.0: None
    stage.process(_wire(TYPE_REQUEST, 0), 1.0, emit)
    stage.reset()
    stage.process(_wire(TYPE_REQUEST, 0), 2.0, emit)
    assert fired == [1.0, 2.0]
    assert stage.fired == [CrashFault("fwd", 0)]  # post-reset run only


# ------------------------------------------------------ EndpointLifecycle
def test_endpoint_lifecycle_maps_kinds_to_actions():
    calls = []
    life = EndpointLifecycle(crash=lambda: calls.append("crash"),
                             restart=lambda: calls.append("restart"))
    life.fire(CrashFault("fwd", 2), 5.0)
    life.fire(RestartFault("fwd", 2, 1), 9.0)
    assert calls == ["crash", "restart"]
    life.fire(RestartFault("fwd", 3, 1), 12.0)
    assert calls == ["crash", "restart", "restart"]
    EndpointLifecycle(crash=lambda: calls.append("crash")).fire(
        RestartFault("fwd", 2, 1), 14.0)  # no restart action: nothing runs
    assert calls == ["crash", "restart", "restart"]
