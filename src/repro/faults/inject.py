"""Attach perturbation pipelines to the substrates' delivery hooks.

Every substrate late-binds its ingress callback precisely so that
fault machinery can interpose: the DC21140 receives frames through
``nic._on_frame``, the PCA-200 receives cells through
``backend.on_cell`` and U-Net/OS receives datagrams through
``backend._deliver``.  A :class:`PerturbationPipeline` swaps such a hook
for a chain of :class:`~repro.faults.perturb.LinkPerturbation` stages
and puts it back on :meth:`~PerturbationPipeline.restore` — also
available as a context manager, so tests can scope faults to a block::

    with attach_pipeline(backend, [GilbertElliott(), DelayJitter()]):
        sim.run(until=1_000_000.0)
    # hook restored here

Which hooks a backend exposes is its ``rx_fault_hooks()``; what its
PDUs look like is its ``wire``, which the pipeline hands to its stages.
One pipeline class serves every substrate.  The swap and its undo are
:class:`Interposer`'s, which the endpoint faults of
:mod:`repro.faults.receiver` share.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..sim.rng import RngRegistry
from ..telemetry import read
from .perturb import LinkPerturbation, PerturbationContext

__all__ = ["Interposer", "PerturbationPipeline", "attach_pipeline"]


class Interposer:
    """Replaces attributes for as long as it is attached.

    A subclass names what it swaps in :meth:`_hook_points`; attach
    happens in the constructor, :meth:`restore` (or leaving the
    ``with`` block) puts the originals back — an instance override is
    dropped where the original was a plain method — and then runs
    :meth:`_on_restore`.  Both are idempotent.
    """

    def __init__(self) -> None:
        self._saved: Optional[List[Tuple[object, str, object, bool]]] = None
        self.attach()

    def _hook_points(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, replacement)`` triples to interpose."""
        raise NotImplementedError

    def _on_restore(self) -> None:
        """Subclass hook: undo side effects beyond the swap."""

    @property
    def attached(self) -> bool:
        return self._saved is not None

    def attach(self) -> "Interposer":
        if self._saved is None:
            self._saved = []
            for owner, attr, replacement in self._hook_points():
                self._saved.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
                setattr(owner, attr, replacement)
        return self

    def restore(self) -> None:
        if self._saved is None:
            return
        for owner, attr, original, shadowed in self._saved:
            if shadowed:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved = None
        self._on_restore()

    def __enter__(self) -> "Interposer":
        return self.attach()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()


class PerturbationPipeline(Interposer):
    """A chain of perturbation stages interposed on delivery hooks.

    The backend says where the hooks live (``rx_fault_hooks()``) and
    what its PDUs are (``wire``).  Stage order is pipeline order: a PDU
    surviving stage *i* feeds stage *i+1*; delays accumulate and are
    paid once at the end, preserving each stage's view of arrival time.
    """

    def __init__(
        self,
        backend,
        perturbations: Sequence[LinkPerturbation],
        rng: Optional[RngRegistry] = None,
        prefix: str = "faults",
    ) -> None:
        self.backend = backend
        self.sim = backend.sim
        self.wire = backend.wire
        self.stages: List[LinkPerturbation] = list(perturbations)
        ctx = PerturbationContext(rng or RngRegistry(), self.wire, prefix)
        for stage in self.stages:
            stage.attach(ctx)
        self.injected = 0
        self.delivered = 0
        super().__init__()

    def _hook_points(self):
        """Every hook point — one per controller, so bonded dual-NIC
        hosts are perturbed on both rails."""
        return [(owner, attr,
                 lambda pdu, _deliver=getattr(owner, attr): self._inject(pdu, _deliver))
                for owner, attr in self.backend.rx_fault_hooks()]

    # ------------------------------------------------------------- datapath
    def _inject(self, pdu, deliver) -> None:
        self.injected += 1
        self._feed(0, pdu, 0.0, deliver)

    def _feed(self, index: int, pdu, delay: float, deliver) -> None:
        if index == len(self.stages):
            if delay <= 0.0:
                self._deliver(pdu, deliver)
            else:
                self.sim.call_in(delay, self._deliver, pdu, deliver)
            return
        stage = self.stages[index]
        stage.process(pdu, self.sim.now,
                      lambda p, d=0.0: self._feed(index + 1, p, delay + d, deliver))

    def _deliver(self, pdu, deliver) -> None:
        self.delivered += 1
        deliver(pdu)

    # ------------------------------------------------------------- reporting
    def stats(self) -> dict:
        """The soak report's view: the pipeline's totals and, under
        ``"<index>:<label>"``, each counting stage's declared counters."""
        stages = {f"{i}:{stage.label}": read(stage)
                  for i, stage in enumerate(self.stages) if stage.COUNTERS}
        return {"injected": self.injected, "delivered": self.delivered,
                "stages": stages}


#: attach ``perturbations`` to ``backend``, whichever substrate it is
attach_pipeline = PerturbationPipeline
