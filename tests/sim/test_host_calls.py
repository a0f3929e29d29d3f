"""Host cost of the ATM cell path, as Python calls per message, pinned.

Wall time on a shared runner swings by tens of percent; the number of
Python frames a run enters does not.  This streams 50 messages of 1 498
bytes (32 cells each) over the Fig 6 ATM rig and counts the calls whose
code lives in ``src/repro`` with :func:`repro.analysis.hostcost.count_calls`
(its docstring has the counting rules; ``BENCH_host.json`` is written by
the same counter).

The pin is a ceiling: it may only fall.  A frame put back on the
per-cell path (a delivery that calls through a helper again, a dataclass
``__post_init__``) fails here, and the failure prints the per-function
table, so the frame names itself.  ``-s`` prints the count.
"""

from repro.analysis.hostcost import count_calls, per_function
from repro.analysis.microbench import FIGURE6_CONFIGS, measure_bandwidth

MESSAGES = 50

#: calls into ``src/repro`` per 1 498-byte message (32 cells).  885.86
#: before the slotted ``Cell`` (no ``__post_init__``), the link lane that
#: delivers in its own frame (no ``Link._deliver_one`` behind each fire)
#: and the ``sim._now`` reads and guarded records of the cell path;
#: 659.86 before the firmware's idle wait built its ``Event`` directly;
#: 656.56 before the slotted ``RecvDescriptor`` / ``Packet``, the
#: single-check ring pushes and the guarded AM records
CALLS_PER_MESSAGE = 640.92

def test_python_calls_per_atm_message_are_pinned():
    with FIGURE6_CONFIGS["atm"]() as setup:
        counts = count_calls(lambda: measure_bandwidth(setup, 1498, messages=MESSAGES))
    per_message = sum(counts.values()) / MESSAGES
    print(f"fig6-atm-1498B-x{MESSAGES}: {per_message} calls into src/repro per message")
    assert per_message <= CALLS_PER_MESSAGE, (
        f"{per_message} calls per message, ceiling {CALLS_PER_MESSAGE}; per function:\n"
        f"{per_function(counts, MESSAGES)}")
