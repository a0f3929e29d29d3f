"""Smoke tests: every shipped example runs clean and says what it claims."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _run(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = _run("quickstart.py", capsys)
    assert "57.0 us" in out  # the headline 40-byte hub RTT


def test_atm_vs_ethernet(capsys):
    out = _run("atm_vs_ethernet.py", capsys)
    assert "Round-trip latency" in out
    assert "bandwidth" in out.lower()
    assert "fast path" in out


def test_kernel_timelines(capsys):
    out = _run("kernel_timelines.py", capsys)
    assert "4.20us" in out
    assert "small-message optimization saves" in out


def test_active_messages_rpc(capsys):
    out = _run("active_messages_rpc.py", capsys)
    assert "forty-two" in out
    assert "verified at the server" in out


def test_parallel_sort(capsys):
    out = _run("parallel_sort.py", capsys)
    # all four configurations ran; a wrong sort would have raised
    assert out.count(" msgs ") == 4
    assert "checked" in out


def test_beyond_one_switch(capsys):
    out = _run("beyond_one_switch.py", capsys)
    assert "network-wide VC" in out
    assert "router" in out


def test_file_server(capsys):
    out = _run("file_server.py", capsys)
    assert "ops/s" in out
    assert "Fast Ethernet serves" in out


def test_fault_tolerant_commit(capsys):
    out = _run("fault_tolerant_commit.py", capsys)
    assert "all transactions still committed" in out


def test_custom_protocol(capsys):
    out = _run("custom_protocol.py", capsys)
    assert "stop-and-wait" in out
    assert "pipelined" in out
