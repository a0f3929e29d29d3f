"""Host cost of the ATM cell path, as Python calls per message, pinned.

Wall time on a shared runner swings by tens of percent; the number of
Python frames a run enters does not.  This streams 50 messages of 1 498
bytes (32 cells each) over the Fig 6 ATM rig under ``sys.setprofile``
and counts the ``call`` events whose code lives in ``src/repro``.  Code
objects named ``<...>`` (comprehensions, generator expressions, lambdas)
are skipped: 3.12 inlines comprehensions, so the count is the same on
every supported Python.  The collector is run before and held off during
the count, so no finaliser lands in it.

The pin is a ceiling: it may only fall.  A frame put back on the
per-cell path (a delivery that calls through a helper again, a dataclass
``__post_init__``) fails here, and the failure prints the per-function
table, so the frame names itself.  ``-s`` prints the count.
"""

import gc
import os
import sys
from collections import Counter

import repro
from repro.analysis.microbench import FIGURE6_CONFIGS, measure_bandwidth

MESSAGES = 50

#: calls into ``src/repro`` per 1 498-byte message (32 cells).  885.86
#: before the slotted ``Cell`` (no ``__post_init__``), the link lane that
#: delivers in its own frame (no ``Link._deliver_one`` behind each fire)
#: and the ``sim._now`` reads and guarded records of the cell path;
#: 659.86 before the firmware's idle wait built its ``Event`` directly
CALLS_PER_MESSAGE = 656.56

_SRC = os.path.dirname(repro.__file__) + os.sep


def count_calls(run):
    """``run()`` under the profiler: the calls it made into ``src/repro``,
    by ``(path, first line, name)``, with no collection during the count."""
    counts = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_SRC) and not code.co_name.startswith("<"):
                counts[code.co_filename[len(_SRC):], code.co_firstlineno, code.co_name] += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return counts


def per_function(counts, per):
    """The per-function table a failure prints: calls per ``per`` units."""
    return "\n".join(f"{count / per:10.2f}  {path}:{line} {name}"
                     for (path, line, name), count in counts.most_common())


def test_python_calls_per_atm_message_are_pinned():
    with FIGURE6_CONFIGS["atm"]() as setup:
        counts = count_calls(lambda: measure_bandwidth(setup, 1498, messages=MESSAGES))
    per_message = sum(counts.values()) / MESSAGES
    print(f"fig6-atm-1498B-x{MESSAGES}: {per_message} calls into src/repro per message")
    assert per_message <= CALLS_PER_MESSAGE, (
        f"{per_message} calls per message, ceiling {CALLS_PER_MESSAGE}; per function:\n"
        f"{per_function(counts, MESSAGES)}")
