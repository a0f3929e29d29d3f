"""repro — U-Net over ATM and Fast Ethernet, reproduced in simulation.

A production-quality reproduction of Welsh, Basu & von Eicken, "ATM and
Fast Ethernet Network Interfaces for User-level Communication" (HPCA
1997): the U-Net user-level network architecture implemented for real
on calibrated discrete-event models of the paper's hardware.

Quick tour::

    from repro import Simulator, HubNetwork, PENTIUM_120

    sim = Simulator()
    net = HubNetwork(sim)
    a = net.add_host("a", PENTIUM_120)
    b = net.add_host("b", PENTIUM_120)
    ep_a = a.create_endpoint(rx_buffers=16)
    ep_b = b.create_endpoint(rx_buffers=16)
    ch_a, ch_b = net.connect(ep_a, ep_b)
    # ... yield from ep_a.send(ch_a, b"hello") / ep_b.recv()

Sub-packages:

- :mod:`repro.sim` — the discrete-event kernel (time unit: microseconds)
- :mod:`repro.hw` — CPU/bus/memory/interrupt models
- :mod:`repro.core` — the U-Net architecture itself
- :mod:`repro.atm`, :mod:`repro.ethernet` — the two substrates and
  their U-Net backends
- :mod:`repro.am` — Active Messages (reliability + flow control)
- :mod:`repro.splitc`, :mod:`repro.apps` — the Split-C runtime and the
  paper's benchmark suite
- :mod:`repro.perfmodel`, :mod:`repro.analysis` — full-scale projection
  and the experiment harness

Command line: ``python -m repro list``.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

# convenience re-exports of the most common entry points; the
# sub-packages remain the canonical homes
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".sim": ("Simulator",),
    ".core": ("Host", "UserEndpoint", "EndpointConfig"),
    ".hw": ("PENTIUM_90", "PENTIUM_120", "SPARCSTATION_10", "SPARCSTATION_20"),
    ".ethernet": ("HubNetwork", "SwitchedNetwork"),
    ".atm": ("AtmNetwork",),
    ".splitc": ("Cluster",),
    ".am": ("AmEndpoint",),
})
