"""Every code snippet in TUTORIAL.md must actually run.

Snippets share one namespace in document order (the tutorial builds on
itself), exactly as a reader following along would experience it.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

TUTORIAL = Path(__file__).resolve().parents[1] / "TUTORIAL.md"


def _snippets():
    text = TUTORIAL.read_text()
    return re.findall(r"```python\n(.*?)```", text, re.S)


def test_tutorial_has_snippets():
    assert len(_snippets()) >= 5


def test_tutorial_snippets_run_in_order():
    namespace = {}
    for index, code in enumerate(_snippets()):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            exec(compile(code, f"<tutorial-snippet-{index}>", "exec"), namespace)


def test_tutorial_outputs_match_prose():
    namespace = {}
    outputs = []
    for index, code in enumerate(_snippets()):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            exec(compile(code, f"<tutorial-snippet-{index}>", "exec"), namespace)
        outputs.append(buffer.getvalue())
    assert "done" in outputs[0] and "5.0" in outputs[0]
    assert outputs[1].strip() == "[('dma done', 8.25), ('delivered', 18.75)] 4"
    assert outputs[2].strip() == "2 frame0 2"  # try_put, then put only when full
    # a lane: three of a hundred deliveries fired, 97 in flight at close
    assert outputs[3].splitlines() == ["[0, 1, 2] 3", "Discarded(processes=0, entries=97)"]
    # one wake until the chain's own sum, and every traced step where it was
    assert outputs[4].splitlines() == [
        "3.3299999999999996 3.329999999999999",
        "[(1.05, 'free ring'), (1.9700000000000002, 'free queue entry'), "
        "(2.39, 'return from trap')] 2"]
    assert outputs[5].strip().startswith("9")  # ~91 us on FN100
    # one stream per host: every layer below the application, one delivery
    assert outputs[6].splitlines() == [
        "['endpoint', 'nic', 'unet_fe.rx', 'unet_fe.tx']",
        "[('deliver', {'endpoint': 0, 'channel': 0, 'length': 40})]"]
    assert "42" in outputs[7]
    assert "[4000, 4000, 4000, 4000]" in outputs[8]
