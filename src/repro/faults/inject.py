"""Attach perturbation pipelines to the substrates' delivery hooks.

Both substrates late-bind their ingress callback precisely so that
fault machinery can interpose: the DC21140 receives frames through
``nic._on_frame`` and the PCA-200 receives cells through
``backend.on_cell``.  A :class:`PerturbationPipeline` swaps such a hook
for a chain of :class:`~repro.faults.perturb.LinkPerturbation` stages
and puts it back on :meth:`~PerturbationPipeline.restore` — also
available as a context manager, so tests can scope faults to a block::

    with FramePipeline(backend, [GilbertElliott(), DelayJitter()]):
        sim.run(until=1_000_000.0)
    # hook restored here

Which hooks a backend exposes is its ``rx_fault_hooks()``; which PDU
they carry is its declared ``wire_unit``, and that alone picks the
pipeline class (they differ in how to corrupt a PDU, nothing else).
"""

from __future__ import annotations

import random
from typing import Generator, List, Optional, Sequence, Tuple

from ..sim.rng import RngRegistry
from .perturb import LinkPerturbation, PerturbationContext

__all__ = [
    "PerturbationPipeline",
    "FramePipeline",
    "CellPipeline",
    "attach_pipeline",
    "corrupt_frame",
    "corrupt_cell",
]


def corrupt_frame(frame, rng: random.Random):
    """Damage one payload byte and flag the frame for the CRC checker."""
    from ..ethernet.frames import EthernetFrame

    body = bytearray(frame.payload)
    if body:
        body[rng.randrange(len(body))] ^= 0xFF
    return EthernetFrame(
        dst_mac=frame.dst_mac,
        src_mac=frame.src_mac,
        dst_port=frame.dst_port,
        src_port=frame.src_port,
        payload=bytes(body),
        corrupted=True,
    )


def corrupt_cell(cell, rng: random.Random):
    """Damage one payload byte and flag the cell."""
    from ..atm.cells import Cell

    body = bytearray(cell.payload)
    if body:
        body[rng.randrange(len(body))] ^= 0xFF
    return Cell(vci=cell.vci, payload=bytes(body), last=cell.last, corrupted=True)


class PerturbationPipeline:
    """A chain of perturbation stages interposed on delivery hooks.

    The backend says where the hooks live (:meth:`_hook_points`) and
    subclasses how to corrupt this substrate's PDU.  Attach happens in
    the constructor; :meth:`restore` (or leaving the ``with`` block)
    puts the original hooks back.  Stage order is pipeline order: a PDU surviving stage
    *i* feeds stage *i+1*; delays accumulate and are paid once at the
    end, preserving each stage's view of arrival time.
    """

    _corrupter = None

    def __init__(
        self,
        backend,
        perturbations: Sequence[LinkPerturbation],
        rng: Optional[RngRegistry] = None,
        prefix: str = "faults",
    ) -> None:
        self.backend = backend
        self.sim = backend.sim
        self.stages: List[LinkPerturbation] = list(perturbations)
        self.registry = rng or RngRegistry()
        ctx = PerturbationContext(self.sim, self.registry, type(self)._corrupter, prefix)
        for stage in self.stages:
            stage.attach(ctx)
        self.injected = 0
        self.delivered = 0
        self._saved: Optional[List[Tuple[object, str, object]]] = None
        self.attach()

    # ------------------------------------------------------------ lifecycle
    def _hook_points(self) -> List[Tuple[object, str]]:
        """``(owner, attribute)`` pairs to interpose on: one per
        controller, so bonded dual-NIC hosts are perturbed on both rails."""
        return self.backend.rx_fault_hooks()

    @property
    def attached(self) -> bool:
        return self._saved is not None

    def attach(self) -> "PerturbationPipeline":
        """Interpose on every hook point (idempotent)."""
        if self._saved is not None:
            return self
        self._saved = []
        for owner, attr in self._hook_points():
            original = getattr(owner, attr)
            shadowed = attr in vars(owner)
            setattr(owner, attr, lambda pdu, _deliver=original: self._inject(pdu, _deliver))
            self._saved.append((owner, attr, original, shadowed))
        return self

    def restore(self) -> None:
        """Put the original delivery hooks back (idempotent)."""
        if self._saved is None:
            return
        for owner, attr, original, shadowed in self._saved:
            if shadowed:
                setattr(owner, attr, original)
            else:
                # the hook was a plain method: drop our instance override
                delattr(owner, attr)
        self._saved = None

    #: legacy spelling
    remove = restore

    def __enter__(self) -> "PerturbationPipeline":
        return self.attach()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()

    # ------------------------------------------------------------- datapath
    def _inject(self, pdu, deliver) -> None:
        self.injected += 1
        self._feed(0, pdu, 0.0, deliver)

    def _feed(self, index: int, pdu, delay: float, deliver) -> None:
        if index == len(self.stages):
            if delay <= 0.0:
                self.delivered += 1
                deliver(pdu)
            else:
                self.sim.process(self._deliver_later(pdu, delay, deliver),
                                 name="faults.delayed")
            return
        stage = self.stages[index]
        stage.process(pdu, self.sim.now,
                      lambda p, d=0.0: self._feed(index + 1, p, delay + d, deliver))

    def _deliver_later(self, pdu, delay: float, deliver) -> Generator:
        yield delay
        self.delivered += 1
        deliver(pdu)

    # ------------------------------------------------------------- reporting
    def stats(self) -> dict:
        stage_stats = {}
        for i, stage in enumerate(self.stages):
            counters = stage.counters()
            if counters:
                stage_stats[f"{i}:{stage.label}"] = counters
        return {"injected": self.injected, "delivered": self.delivered,
                "stages": stage_stats}


class FramePipeline(PerturbationPipeline):
    """Perturb Ethernet frames arriving at one host's NIC(s)."""

    _corrupter = staticmethod(corrupt_frame)


class CellPipeline(PerturbationPipeline):
    """Perturb ATM cells arriving at one host's PCA-200."""

    _corrupter = staticmethod(corrupt_cell)


_PIPELINES = {"frame": FramePipeline, "cell": CellPipeline}


def attach_pipeline(
    backend,
    perturbations: Sequence[LinkPerturbation],
    rng: Optional[RngRegistry] = None,
    prefix: str = "faults",
) -> PerturbationPipeline:
    """Attach ``perturbations`` to ``backend``, whichever substrate it is."""
    pipeline = _PIPELINES.get(backend.wire_unit)
    if pipeline is None:
        raise TypeError(f"no delivery hook to perturb {backend.wire_unit}s at ({backend!r})")
    return pipeline(backend, perturbations, rng=rng, prefix=prefix)
