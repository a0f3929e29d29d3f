"""The paper's ATM experimental setup: one switch, hosts on its ports.

Hosts with PCA-200 (or SBA-200-style) adapters, each connected by a
duplex fiber to one port of a Fore ASX-200 switch — the one-switch case
of :class:`~repro.atm.fabric.AtmFabric`, which owns host attachment and
the signaling service (VCI allocation, route programming, channels).
"""

from __future__ import annotations

from ..sim import Simulator
from .fabric import AtmFabric
from .switch import ASX200_FORWARD_US, AtmSwitch

__all__ = ["AtmNetwork"]


class AtmNetwork(AtmFabric):
    """One ATM switch plus the hosts hanging off it."""

    def __init__(self, sim: Simulator, forward_us: float = ASX200_FORWARD_US) -> None:
        super().__init__(sim, switches=1, forward_us=forward_us)

    @property
    def switch(self) -> AtmSwitch:
        return self.switches[0]
