"""U-Net/FE host-CPU contention: traps and interrupt handlers serialize.

The paper's central FE trade-off is that "a portion of main processor
time is allocated to servicing U-Net requests" (Section 4.3) — the same
CPU runs the application, the send trap, and the receive interrupt
handler.  The kernel-CPU resource must serialize them.
"""

import pytest

from repro.ethernet import HubNetwork
from repro.sim import Simulator


@pytest.fixture
def pair(two_hosts):
    def build(network=HubNetwork):
        rig = two_hosts(network(Simulator()), config=None, rx_buffers=32)
        return rig.sim, rig.ep1, rig.ep2, rig.ch1, rig.ch2

    return build


def test_trap_and_rx_handler_serialize(pair):
    """A send trap issued while the receive handler runs waits for the CPU."""
    sim, ep1, ep2, ch1, ch2 = pair()
    backend2 = ep2.host.backend

    # measure the uncontended send cost first
    quiet = {}

    def quiet_send():
        t0 = sim.now
        yield from ep2.send(ch2, b"y" * 40)
        quiet["cost"] = sim.now - t0

    sim.run_until_complete(sim.process(quiet_send()))
    sim.run()

    # now inject a large frame so ep2's kernel is inside the receive
    # handler (copy of 1400 bytes ~ 20us), and trap 1us into it
    from repro.ethernet import EthernetFrame
    from repro.ethernet.dc21140 import RxRingBuffer

    tag = ep1.endpoint.channels[ch1].tag
    frame = EthernetFrame(dst_mac=tag.dst_mac, src_mac=tag.src_mac,
                          dst_port=tag.dst_port, src_port=tag.src_port,
                          payload=b"x" * 1400)
    contended = {}

    def contended_send():
        backend2.nic.rx_ring.push(RxRingBuffer(frame=frame))
        backend2.nic.interrupt()
        yield sim.timeout(backend2.cpu.interrupt_entry_us + 1.0)
        t0 = sim.now
        yield from ep2.send(ch2, b"y" * 40)
        contended["cost"] = sim.now - t0

    sim.run_until_complete(sim.process(contended_send()))
    sim.run()
    # the trap waited for the ~20us receive handler to finish
    assert contended["cost"] > quiet["cost"] + 10.0
    assert backend2.kernel_cpu.in_use == 0  # everything released


def test_kernel_cpu_idle_after_quiescence(pair):
    sim, ep1, ep2, ch1, ch2 = pair()

    def traffic():
        for _ in range(3):
            yield from ep1.send(ch1, b"z" * 100)

    sim.process(traffic())
    sim.run()
    for ep in (ep1, ep2):
        backend = ep.host.backend
        assert backend.kernel_cpu.in_use == 0
        assert backend.kernel_cpu.queued == 0


def test_atm_host_does_not_pay_receive_cpu(pair):
    """Contrast: on U-Net/ATM the i960 handles reception; the host CPU
    is only touched by the application's own poll/consume."""
    from repro.atm import AtmNetwork

    sim, ep1, ep2, ch1, ch2 = pair(AtmNetwork)
    send_times = []

    def remote_sender():
        for _ in range(6):
            yield from ep1.send(ch1, b"x" * 1400)

    def local_sender():
        yield sim.timeout(60.0)
        for _ in range(6):
            t0 = sim.now
            yield from ep2.send(ch2, b"y" * 40)
            send_times.append(sim.now - t0)

    sim.process(remote_sender())
    p = sim.process(local_sender())
    sim.run_until_complete(p)
    sim.run()
    # sends never contend with reception: constant ~1.5us host overhead
    assert max(send_times) - min(send_times) < 0.01
    assert max(send_times) < 2.0
