"""Shared fixtures for the live U-Net/OS substrate tests.

Everything here needs a real datagram socket; modules declare which
transport kinds they can run on and skip cleanly where the OS cannot
provide one (the CI contract: skipped, never silently passed).
"""

import pytest

from repro.live import available_transport_kinds, mmsg_available


def batching_path() -> str:
    """Which batching path the live transports take on this machine."""
    if mmsg_available():
        return "sendmmsg/recvmmsg (ctypes)"
    return "portable sendto/recvmsg_into loop"


def pytest_report_header(config):
    """One CI log line saying which batching path this run exercised —
    so a green run on a non-Linux box is visibly a portable-path run,
    not a silent claim that the ctypes mmsg path was covered."""
    kinds = ", ".join(available_transport_kinds()) or "none"
    return f"live substrate: transports [{kinds}], batching via {batching_path()}"


@pytest.fixture
def any_kind():
    kinds = available_transport_kinds()
    if not kinds:
        pytest.skip("no live datagram transport available on this machine")
    return kinds[0]


def require(kind: str):
    """Module-level skip marker for a specific transport kind."""
    from repro.live import transport_available

    return pytest.mark.skipif(
        not transport_available(kind),
        reason=f"{kind} datagram transport not available on this machine")
