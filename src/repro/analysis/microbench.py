"""Microbenchmarks: round-trip latency and bandwidth (Figures 5 and 6).

These drive the two U-Net implementations exactly as the paper's
application-level benchmarks did: a user process composes each message
into its endpoint buffer area, pushes a descriptor, kicks the NI, and
polls/blocks on its receive queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..atm.network import AtmNetwork
from ..atm.phy import OC3_SONET, TAXI_140, AtmPhy
from ..core.api import UserEndpoint
from ..core.base import Closing, SimulatedNetwork
from ..core.endpoint import EndpointConfig
from ..ethernet.network import HubNetwork, SwitchedNetwork
from ..ethernet.switch import BAY_28115, FN100, SwitchModel
from ..hw.cpu import PENTIUM_120, CpuModel
from ..sim import Simulator

__all__ = [
    "MicrobenchSetup",
    "two_host_rig",
    "setup_fe_hub",
    "setup_fe_switch",
    "setup_atm",
    "measure_rtt",
    "measure_bandwidth",
    "rtt_of",
    "bandwidth_of",
    "FIGURE5_CONFIGS",
    "FIGURE6_CONFIGS",
    "Figure",
    "FIGURES",
]

_ENDPOINT = EndpointConfig(num_buffers=256, buffer_size=2048, send_queue_depth=128, recv_queue_depth=256)


@dataclass
class MicrobenchSetup(Closing):
    """A fresh two-host network plus connected endpoints.

    ``with factory() as setup:`` closes the network (and the simulator
    under it) once the measurement is read.
    """

    label: str
    sim: Simulator
    ep1: UserEndpoint
    ep2: UserEndpoint
    ch1: int
    ch2: int
    net: SimulatedNetwork

    def close(self) -> None:
        self.net.close()


def two_host_rig(net: SimulatedNetwork, cpu: CpuModel = PENTIUM_120, *, label: str = "",
                 names: Sequence[str] = ("h1", "h2"),
                 config: Optional[EndpointConfig] = _ENDPOINT, rx_buffers: int = 64,
                 where: Sequence[dict] = ({}, {}), **host_kwargs) -> MicrobenchSetup:
    """Two hosts on a fresh ``net``, one endpoint each, one channel
    between them.  ``host_kwargs`` go to both ``add_host`` calls,
    ``where[i]`` to host ``i``'s only (a routed segment, a Clos leaf)."""
    h1, h2 = (net.add_host(name, cpu, **host_kwargs, **placement)
              for name, placement in zip(names, where))
    ep1 = h1.create_endpoint(config=config, rx_buffers=rx_buffers)
    ep2 = h2.create_endpoint(config=config, rx_buffers=rx_buffers)
    ch1, ch2 = net.connect(ep1, ep2)
    return MicrobenchSetup(label, net.sim, ep1, ep2, ch1, ch2, net)


def setup_fe_hub(cpu: CpuModel = PENTIUM_120) -> MicrobenchSetup:
    return two_host_rig(HubNetwork(Simulator()), cpu, label="FE hub")


def setup_fe_switch(model: SwitchModel = BAY_28115, cpu: CpuModel = PENTIUM_120) -> MicrobenchSetup:
    return two_host_rig(SwitchedNetwork(Simulator(), model=model), cpu, label=f"FE {model.name}")


def setup_atm(phy: AtmPhy = OC3_SONET, cpu: CpuModel = PENTIUM_120) -> MicrobenchSetup:
    return two_host_rig(AtmNetwork(Simulator()), cpu, label=f"ATM {phy.name}", phy=phy)


def measure_rtt(setup: MicrobenchSetup, size: int, rounds: int = 5) -> float:
    """Application-level round-trip time for ``size``-byte messages."""
    sim = setup.sim
    payload = bytes(size)

    def ponger():
        while True:
            message = yield from setup.ep2.recv()
            yield from setup.ep2.send(setup.ch2, message.data)

    def pinger():
        rtts = []
        for _ in range(rounds):
            t0 = sim.now
            yield from setup.ep1.send(setup.ch1, payload)
            yield from setup.ep1.recv()
            rtts.append(sim.now - t0)
        # drop the cold-start round
        return sum(rtts[1:]) / (len(rtts) - 1)

    sim.process(ponger(), name="ponger")
    return sim.run_until_complete(sim.process(pinger(), name="pinger"))


def measure_bandwidth(setup: MicrobenchSetup, size: int, messages: int = 60) -> float:
    """One-way application-level goodput in Mb/s for ``size``-byte messages."""
    sim = setup.sim
    payload = bytes(max(1, size))

    def sender():
        for _ in range(messages):
            yield from setup.ep1.send(setup.ch1, payload)

    def receiver():
        for _ in range(messages):
            yield from setup.ep2.recv()
        return sim.now

    sim.process(sender(), name="sender")
    end = sim.run_until_complete(sim.process(receiver(), name="receiver"))
    return messages * size * 8 / end if end > 0 else 0.0


#: the four Figure-5 configurations (paper: hub, Bay 28115, FN100, ATM),
#: plus the 140 Mb/s TAXI PHY of the paper's reference [16] (U-Net/ATM
#: without SONET framing measured 65 us there)
FIGURE5_CONFIGS: Dict[str, Callable[[], MicrobenchSetup]] = {
    "hub": setup_fe_hub,
    "bay28115": lambda: setup_fe_switch(BAY_28115),
    "fn100": lambda: setup_fe_switch(FN100),
    "atm": lambda: setup_atm(OC3_SONET),
    "atm-taxi": lambda: setup_atm(TAXI_140),
}

#: the Figure-6 configurations (bandwidth; ATM receives on 140 Mb/s TAXI)
FIGURE6_CONFIGS: Dict[str, Callable[[], MicrobenchSetup]] = {
    "hub": setup_fe_hub,
    "bay28115": lambda: setup_fe_switch(BAY_28115),
    "atm": lambda: setup_atm(TAXI_140),
}


def rtt_of(config: str, size: int) -> float:
    """RTT us of one Figure-5 configuration, on a rig built and closed here."""
    with FIGURE5_CONFIGS[config]() as setup:
        return measure_rtt(setup, size)


def bandwidth_of(config: str, size: int) -> float:
    """Mb/s of one Figure-6 configuration, on a rig built and closed here."""
    with FIGURE6_CONFIGS[config]() as setup:
        return measure_bandwidth(setup, size)


class Figure(NamedTuple):
    """One of the paper's two microbenchmark figures."""

    title: str
    configs: Dict[str, Callable[[], MicrobenchSetup]]
    #: one point: (config, size) -> value, on a rig built and closed there
    measure: Callable[[str, int], float]
    #: what one point is called ("round-trip", "bandwidth")
    quantity: str
    unit: str
    #: message sizes of the text table
    sizes: Tuple[int, ...]

    def series(self, sizes: Sequence[int]) -> Dict[str, List[Tuple[int, float]]]:
        """(size, value) points per configuration."""
        return {name: [(size, self.measure(name, size)) for size in sizes]
                for name in self.configs}


#: Figures 5 and 6, by the command that prints each
FIGURES: Dict[str, Figure] = {
    "fig5": Figure("Figure 5 - round-trip latency", FIGURE5_CONFIGS, rtt_of, "round-trip",
                   "us", (0, 8, 16, 32, 40, 44, 64, 128, 256, 512, 1024, 1498)),
    "fig6": Figure("Figure 6 - bandwidth", FIGURE6_CONFIGS, bandwidth_of, "bandwidth",
                   "Mb/s", (16, 64, 128, 256, 512, 1024, 1498)),
}
