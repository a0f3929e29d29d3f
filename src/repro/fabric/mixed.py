"""Mixed ATM + Fast Ethernet clusters joined by a store-and-forward relay.

The paper measures both substrates in isolation; real machine rooms of
the era ran both at once.  A :class:`MixedFabric` holds an ATM Clos and
an FE Clos side by side and bridges them with a dual-homed relay host:
one U-Net endpoint on each fabric, with a forwarding loop that receives
on one side and re-sends on the other.  Channels within one substrate
are native (no relay hop, no encapsulation — U-Net semantics intact);
cross-substrate channels are transparently spliced through the relay,
which maps the ATM-side channel id to its FE-side twin and back.

The ATM side's PDU limit is capped at the FE PDU so a cross-substrate
message never arrives at the relay too large to forward — the classic
path-MTU rule, applied at channel setup rather than discovered.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.api import Host, UserEndpoint
from ..core.base import SimulatedNetwork
from ..core.endpoint import EndpointConfig
from ..core.errors import ChannelError
from ..ethernet.frames import UNET_FE_MAX_PDU
from ..hw.cpu import PENTIUM_120, CpuModel
from ..sim import Discarded, Simulator
from .atm_clos import ClosAtmFabric
from .fe_clos import ClosFeNetwork

__all__ = ["MixedFabric"]

#: relay CPU cost to shuffle one message between its two endpoints
RELAY_FORWARD_US = 5.0

_RELAY_CONFIG = EndpointConfig(
    num_buffers=256, buffer_size=2048, send_queue_depth=128, recv_queue_depth=256
)


class MixedFabric(SimulatedNetwork):
    """An ATM Clos plus an FE Clos with a dual-homed relay between them."""

    COUNTERS = ("relayed_messages",)
    PARTS = ("atm", "fe")

    def __init__(self, sim: Simulator, hosts_per_leaf: int = 8) -> None:
        self.sim = sim
        # two leaves x two spines per side, one extra leaf port for the relay
        self.atm = ClosAtmFabric(sim, hosts_per_leaf=hosts_per_leaf + 1)
        self.fe = ClosFeNetwork(sim, hosts_per_leaf=hosts_per_leaf + 1)
        self.hosts = []
        self._side_of: Dict[object, str] = {}
        self._host_count = 0
        # the relay: one host (and endpoint) per fabric, spliced below
        relay_atm_host = self._attach_atm_host("relay.atm", PENTIUM_120)
        relay_fe_host = self.fe.add_host("relay.fe", PENTIUM_120)
        self.relay_atm = relay_atm_host.create_endpoint(
            config=_RELAY_CONFIG, rx_buffers=128)
        self.relay_fe = relay_fe_host.create_endpoint(
            config=_RELAY_CONFIG, rx_buffers=128)
        self._atm_to_fe: Dict[int, int] = {}
        self._fe_to_atm: Dict[int, int] = {}
        self.relayed_messages = 0
        sim.process(self._relay_loop(self.relay_atm, self.relay_fe, self._atm_to_fe),
                    name="relay.atm->fe")
        sim.process(self._relay_loop(self.relay_fe, self.relay_atm, self._fe_to_atm),
                    name="relay.fe->atm")

    def close(self) -> Discarded:
        """Both sides and the relay between them run on one simulator:
        the first close ends it, the second returns the same report."""
        self.atm.close()
        return self.fe.close()

    def _attach_atm_host(self, name: str, cpu: CpuModel) -> Host:
        host = self.atm.add_host(name, cpu)
        # path-MTU cap: anything an ATM host sends must fit an FE frame
        # once it crosses the relay
        host.backend.max_pdu_cap = UNET_FE_MAX_PDU
        return host

    def add_host(self, name: str, cpu: CpuModel) -> Host:
        """Attach a host; sides alternate ATM, FE, ATM, ..."""
        side = "atm" if self._host_count % 2 == 0 else "fe"
        if side == "atm":
            host = self._attach_atm_host(name, cpu)
        else:
            host = self.fe.add_host(name, cpu)
        self._side_of[host.backend] = side
        self._host_count += 1
        self.hosts.append(host)
        return host

    def side_of(self, endpoint: UserEndpoint) -> str:
        side = self._side_of.get(endpoint.host.backend)
        if side is None:
            raise ChannelError(f"host {endpoint.host.name} is not on this fabric")
        return side

    def connect(self, a: UserEndpoint, b: UserEndpoint) -> Tuple[int, int]:
        """Duplex channel; spliced through the relay when sides differ."""
        side_a, side_b = self.side_of(a), self.side_of(b)
        if side_a == side_b:
            network = self.atm if side_a == "atm" else self.fe
            return network.connect(a, b)
        if side_a == "fe":  # normalize: a is the ATM side below
            ch_b, ch_a = self.connect(b, a)
            return ch_a, ch_b
        ch_a, relay_in = self.atm.connect(a, self.relay_atm)
        relay_out, ch_b = self.fe.connect(self.relay_fe, b)
        self._atm_to_fe[relay_in] = relay_out
        self._fe_to_atm[relay_out] = relay_in
        return ch_a, ch_b

    def _relay_loop(self, src: UserEndpoint, dst: UserEndpoint,
                    mapping: Dict[int, int]):
        while True:
            message = yield from src.recv()
            out_channel = mapping.get(message.channel_id)
            if out_channel is None:
                continue  # not a spliced channel (stray or misdirected)
            yield RELAY_FORWARD_US
            yield from dst.send(out_channel, message.data)
            self.relayed_messages += 1
