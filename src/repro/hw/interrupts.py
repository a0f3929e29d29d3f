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

from ..sim import Simulator
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
        self._pending = False
        self._running = False
        self._rerun = False
        self.interrupts_asserted = 0
        self.handler_runs = 0

    @property
    def busy(self) -> bool:
        return self._pending or self._running

    def assert_irq(self) -> None:
        """Signal the interrupt line.

        Coalesced if a handler run is already pending or in progress.
        """
        self.interrupts_asserted += 1
        if self._running:
            self._rerun = True
            return
        if self._pending:
            return
        self._pending = True
        self.sim.process(self._dispatch(), name=f"{self.name}-dispatch")

    def _dispatch(self) -> Generator:
        yield self.cpu.interrupt_entry_us
        self._pending = False
        self._running = True
        while True:
            self._rerun = False
            self.handler_runs += 1
            yield from self.handler_factory()
            if self.sim.peek() <= self.sim.now:
                yield 0.0  # queue behind same-instant peers (see DmaEngine.transfer)
            if not self._rerun:
                break
        yield self.cpu.interrupt_return_us
        self._running = False
