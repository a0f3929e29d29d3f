"""Interrupt delivery from devices to the (simulated) kernel.

The DC21140 raises an interrupt per received frame; the kernel's U-Net
receive routine then drains the device ring, amortizing one handler
invocation over every pending frame (Section 4.3.3).  The controller
models exactly that: an assertion while the handler is pending or
running is *coalesced* — the handler re-checks the ring before
returning, so no frame is lost and no redundant handler runs.
"""

from __future__ import annotations

from typing import Callable, Generator

from ..sim import Process, Simulator
from .cpu import CpuModel

__all__ = ["InterruptController"]


class InterruptController:
    """Delivers device interrupts to a kernel handler routine.

    ``handler_factory`` returns a fresh generator for each handler
    invocation; it runs inside the dispatch process with the interrupt-
    entry latency already charged.  Devices call :meth:`assert_irq`.
    """

    def __init__(
        self,
        sim: Simulator,
        cpu: CpuModel,
        handler_factory: Callable[[], Generator],
        name: str = "irq",
    ) -> None:
        self.sim = sim
        self.cpu = cpu
        self.handler_factory = handler_factory
        self.name = name
        self._dispatch_name = f"{name}-dispatch"  # one process per dispatch: named once
        self._pending = False
        self._running = False
        self._rerun = False

    @property
    def busy(self) -> bool:
        return self._pending or self._running

    def assert_irq(self) -> None:
        """Signal the interrupt line.

        Coalesced if a handler run is already pending or in progress.
        """
        if self._running:
            self._rerun = True
            return
        if self._pending:
            return
        self._pending = True
        Process(self.sim, self._dispatch(), self._dispatch_name)

    def _dispatch(self) -> Generator:
        sim = self.sim
        yield self.cpu.interrupt_entry_us
        self._pending = False
        self._running = True
        while True:
            self._rerun = False
            yield from self.handler_factory()
            queue = sim._queue
            if queue and queue[0][0] <= sim._now:
                yield 0.0  # queue behind same-instant peers (see DmaEngine.transfer)
            if not self._rerun:
                break
        yield self.cpu.interrupt_return_us
        self._running = False
