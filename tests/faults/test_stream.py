"""The delivery contract and topology the AM stream soaks share."""

from repro import networks
from repro.faults.stream import build_am_star, check_delivery, stream_payload
from repro.sim import Simulator


def _check(delivered, completed=True, corrupted=()):
    return check_delivery(delivered, 4, completed, 1000.0, corrupted)


def test_a_clean_stream_has_no_violations():
    assert _check({0: [0, 1, 2, 3], 1: [0, 1, 2, 3]}) == []


def test_duplicate_dispatch_is_an_exactly_once_violation():
    assert _check({0: [0, 1, 1, 2, 3]}) == [
        "exactly-once: sender 0 ids dispatched twice [1]"]


def test_missing_dispatch_is_an_exactly_once_violation():
    assert _check({0: [0, 1, 2, 3], 1: [0, 3]}) == [
        "exactly-once: sender 1 ids never dispatched [1, 2]"]


def test_duplicate_and_missing_are_reported_separately():
    assert _check({0: [0, 0, 2, 3]}) == [
        "exactly-once: sender 0 ids dispatched twice [0]",
        "exactly-once: sender 0 ids never dispatched [1]"]


def test_reordered_dispatch_is_a_fifo_violation():
    assert _check({0: [0, 2, 1, 3]}) == [
        "fifo: sender 0 dispatch order differs from send order"]


def test_corrupted_payload_is_an_integrity_violation():
    assert _check({0: [0, 1, 2, 3]}, corrupted=[2]) == [
        "integrity: corrupted payload reached the handler for [2]"]


def test_an_incomplete_stream_is_one_termination_violation():
    # the per-id checks would only restate it; integrity still reports
    assert _check({0: [0, 1], 1: [0]}, completed=False) == [
        "termination: 3/8 dispatched at t=1000us"]
    assert _check({0: [0, 1]}, completed=False, corrupted=[(0, 1)]) == [
        "termination: 2/4 dispatched at t=1000us",
        "integrity: corrupted payload reached the handler for [(0, 1)]"]


def test_long_id_lists_are_truncated_to_eight():
    [violation] = check_delivery({0: []}, 20, True, 1.0)
    assert violation.endswith("[0, 1, 2, 3, 4, 5, 6, 7]")


def test_payload_depends_on_sender_and_index():
    assert stream_payload(3, 4) == bytes([3, 4, 5, 6])
    assert stream_payload(3, 4, sender=1) == bytes([40, 41, 42, 43])
    assert stream_payload(255, 2) == bytes([255, 0])


def test_star_names_ids_and_connectivity():
    with networks.get("ethernet").build(Simulator()) as net:
        hosts, ams = build_am_star(net, ("sink", "src0", "src1"), sink=0, config=None)
    assert [h.name for h in hosts] == ["sink", "src0", "src1"]
    assert [am.node for am in ams] == [0, 1, 2]
    assert sorted(ams[0]._peers_by_node) == [1, 2]
    assert sorted(ams[1]._peers_by_node) == [0] == sorted(ams[2]._peers_by_node)
