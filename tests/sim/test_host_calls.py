"""Host cost of the ATM cell path and the U-Net/FE trap/interrupt path,
as Python calls per op, pinned.

Wall time on a shared runner swings by tens of percent; the number of
Python frames a run enters does not.  The ATM pin streams 50 messages of
1 498 bytes (32 cells each) over the Fig 6 ATM rig; the FE pin runs 20
40-byte round trips through ``measure_rtt`` on the Fig 5 hub rig, as
``BENCH_host.json``'s ``fig5-pingpong/hub`` row does.  Both count the
calls whose code lives in ``src/repro`` with
:func:`repro.analysis.hostcost.count_calls` (its docstring has the
counting rules; ``BENCH_host.json`` is written by the same counter).

A pin is a ceiling: it may only fall.  A frame put back on the per-cell
or per-step path (a delivery that calls through a helper again, a
dataclass ``__post_init__``, a wait entered through a sub-generator)
fails here, and the failure prints the per-function table, so the frame
names itself.  ``-s`` prints the counts.
"""

import sys

from repro.analysis.hostcost import count_calls, per_function
from repro.analysis.microbench import (
    FIGURE5_CONFIGS,
    FIGURE6_CONFIGS,
    measure_bandwidth,
    measure_rtt,
)

MESSAGES = 50
ROUND_TRIPS = 20

#: calls into ``src/repro`` per 1 498-byte message (32 cells).  885.86
#: before the slotted ``Cell`` (no ``__post_init__``), the link lane that
#: delivers in its own frame (no ``Link._deliver_one`` behind each fire)
#: and the ``sim._now`` reads and guarded records of the cell path;
#: 659.86 before the firmware's idle wait built its ``Event`` directly;
#: 656.56 before the slotted ``RecvDescriptor`` / ``Packet``, the
#: single-check ring pushes and the guarded AM records; 640.92 before
#: ``UserEndpoint.send`` composed a one-buffer payload itself and the
#: DMA sub-step read the arbiter and the heap head directly
CALLS_PER_MESSAGE = 576.38

#: calls into ``src/repro`` per 40-byte round trip on the hub.  523.75
#: before the trap and the interrupt handler slept each step in their
#: own frame (no ``_step`` / ``_service_send`` / ``_deliver_payload``
#: sub-generators, records built only for a listener, ``sim._now``),
#: the DC21140 ran its DMA steps inline and the hub station handed out
#: the CSMA/CD process itself
CALLS_PER_HUB_ROUND_TRIP = 305.4


def test_python_calls_per_atm_message_are_pinned():
    with FIGURE6_CONFIGS["atm"]() as setup:
        counts = count_calls(lambda: measure_bandwidth(setup, 1498, messages=MESSAGES))
    per_message = sum(counts.values()) / MESSAGES
    print(f"fig6-atm-1498B-x{MESSAGES}: {per_message} calls into src/repro per message")
    assert per_message <= CALLS_PER_MESSAGE, (
        f"{per_message} calls per message, ceiling {CALLS_PER_MESSAGE}; per function:\n"
        f"{per_function(counts, MESSAGES)}")


def test_python_calls_per_fe_hub_round_trip_are_pinned():
    with FIGURE5_CONFIGS["hub"]() as setup:
        counts = count_calls(lambda: measure_rtt(setup, 40, rounds=ROUND_TRIPS))
    per_trip = sum(counts.values()) / ROUND_TRIPS
    print(f"fig5-hub-40B-x{ROUND_TRIPS}: {per_trip} calls into src/repro per round trip")
    assert per_trip <= CALLS_PER_HUB_ROUND_TRIP, (
        f"{per_trip} calls per round trip, ceiling {CALLS_PER_HUB_ROUND_TRIP}; per function:\n"
        f"{per_function(counts, ROUND_TRIPS)}")


def test_count_calls_sets_back_the_profile_hook_it_found():
    """The execution census profiles every workload through a
    ``sys.setprofile`` hook; a count window inside one must hand the
    hook back, or the rest of that run goes unrecorded."""
    seen = []

    def hook(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code.co_name)

    def after_the_window():
        pass

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        count_calls(lambda: None)
        restored = sys.getprofile()
        after_the_window()
    finally:
        sys.setprofile(previous)
    assert restored is hook
    assert "after_the_window" in seen
