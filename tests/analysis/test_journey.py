"""Tests for the end-to-end message journey tracer."""

import pytest

from repro import networks
from repro.analysis import render_journey, trace_journey


def test_fe_journey_covers_every_stage():
    timeline = trace_journey("fe", 40)
    labels = " | ".join(step.label for step in timeline.steps())
    for fragment in (
        "src app: compose",
        "trap entry",
        "fetch TX descriptor",
        "serialize frame onto the wire",
        "DMA frame into host ring buffer",
        "interrupt handler entry",
        "copy 40 byte message",
        "dst app: pop descriptor",
    ):
        assert fragment in labels, fragment


def test_atm_journey_covers_every_stage():
    timeline = trace_journey("atm", 40)
    labels = " | ".join(step.label for step in timeline.steps())
    for fragment in (
        "src app: compose",
        "src i960: i960 polls transmit queue",
        "segment 1 cell",
        "dst i960: pop cell",
        "single-cell fast path",
        "dst app: pop descriptor",
    ):
        assert fragment in labels, fragment


def test_journey_total_is_one_way_latency():
    # one-way ≈ RTT/2 minus the reply-side costs; sanity-bound it
    fe = trace_journey("fe", 40).total
    atm = trace_journey("atm", 40).total
    assert 25.0 < fe < 45.0
    assert 35.0 < atm < 55.0
    assert atm > fe  # the co-processor + SONET path is longer one-way


def test_journey_steps_ordered_in_time():
    timeline = trace_journey("fe", 100)
    offsets = [step.offset for step in timeline.steps()]
    assert offsets == sorted(offsets)


def test_multicell_atm_journey():
    timeline = trace_journey("atm", 300)
    labels = " | ".join(step.label for step in timeline.steps())
    assert "allocate buffer from free queue" in labels
    assert "check hardware CRC" in labels


@pytest.mark.parametrize("row", ["fe-hub", "fe-switch", "fe-beowulf", "fe-clos",
                                 "atm", "atm-clos"])
def test_every_one_ni_row_has_a_journey(row):
    steps = trace_journey(row, 40).steps()
    agent = networks.get(row).ni.agent
    labels = [step.label for step in steps]
    assert labels[0].startswith("src app") and labels[-1].startswith("dst app")
    assert any(label.startswith(f"src {agent}: ") for label in labels)
    assert any(label.startswith(f"dst {agent}: ") for label in labels)
    assert [step.offset for step in steps] == sorted(step.offset for step in steps)
    # the instants of the layers above the NI are not steps
    assert not [label for label in labels if label.startswith(("endpoint:", "am:", "drop:"))]


def test_unknown_substrate_rejected():
    with pytest.raises(ValueError):
        trace_journey("myrinet", 40)


def test_render_contains_total():
    text = render_journey("fe", 40)
    assert "journey of a 40-byte message" in text
    assert "total" in text
