"""Real process death: SIGKILL a live peer, respawn it, and recover.

Also the teardown hygiene regression: a LiveCluster must release every
file descriptor it opened, or long soaks (which cycle clusters) leak
sockets until the process hits its fd limit.
"""

import dataclasses
import os

import pytest

from repro.core import EndpointConfig
from repro.core.errors import UNetError
from repro.live import LiveAm, LiveBackend, LiveCluster, WallClock, make_transport
from repro.live.peer import PeerProcess, peer_am_config
from repro.live.transport import UdpLoopbackTransport

from .conftest import require

CONFIG = EndpointConfig(num_buffers=64, buffer_size=2048,
                        send_queue_depth=32, recv_queue_depth=64)


@require("udp")
def test_peer_process_sigkill_respawn_recovers():
    clock = WallClock()
    backend = LiveBackend(UdpLoopbackTransport(name="test-peer-kill"), clock,
                          node_id=0, node_name="parent")
    try:
        user = backend.create_user_endpoint(config=CONFIG, rx_buffers=32)
        config = peer_am_config(retransmit_timeout_us=10_000.0,
                                dead_after_timeouts=3,
                                hello_retry_us=10_000.0)
        with PeerProcess(backend.transport.address, node=1,
                         rto_us=config.retransmit_timeout_us,
                         dead_after=config.dead_after_timeouts,
                         hello_retry_us=config.hello_retry_us) as peer:
            peer.spawn()
            peer.wire_parent(user)
            am = LiveAm(0, user, config)
            am.connect_peer(1, 0)

            def pump() -> None:
                backend.service()
                am.service()

            deadline = clock.now_us() + 30_000_000.0

            # echo round trip against the real child process
            args, data = am.rpc(1, 1, args=(7,), data=b"ping", pump=pump,
                                limit_us=deadline - clock.now_us())
            assert args[0] == 7 and data == b"ping"

            # SIGKILL: the rpc into the corpse fails with a typed error
            peer.kill()
            assert peer.proc.poll() is not None
            with pytest.raises(UNetError):
                am.rpc(1, 1, args=(8,), data=b"x", pump=pump,
                       limit_us=10_000_000.0)
            assert am.snapshot()[1]["alive"] is False

            # respawn as the next incarnation; HELLO re-establishes
            peer.respawn()
            peer.retarget(user)
            while clock.now_us() < deadline:
                pump()
                snap = am.snapshot()[1]
                if snap["alive"] and not snap["reconnecting"]:
                    break
            else:
                pytest.fail("handshake with the respawned peer never settled")

            args, data = am.rpc(1, 1, args=(9,), data=b"back", pump=pump,
                                limit_us=deadline - clock.now_us())
            assert args[0] == 9 and data == b"back"
            assert peer.kills == 1
            assert user.endpoint.drop_stats()["peer_dead_drops"] >= 1
            am.shutdown()
    finally:
        backend.close()


def test_live_kill_soak_scenario_reduced(any_kind):
    from repro.faults.crashsoak import CRASH_SCENARIOS, run_crash_scenario

    scenario = dataclasses.replace(CRASH_SCENARIOS["live-kill"],
                                   messages=10, crashes=1)
    result = run_crash_scenario(scenario)
    assert result.ok, result.violations
    assert result.duplicated == 0
    assert result.restarts == 1
    assert len(result.recovery_times_us) == 1


def test_live_cluster_teardown_releases_fds(any_kind):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("/proc/self/fd not available on this platform")

    def cycle() -> None:
        clock = WallClock()
        with LiveCluster(lambda name: make_transport(any_kind, name),
                         clock) as cluster:
            n0 = cluster.add_node("n0")
            n1 = cluster.add_node("n1")
            ep0 = n0.create_user_endpoint(config=CONFIG, rx_buffers=16)
            ep1 = n1.create_user_endpoint(config=CONFIG, rx_buffers=16)
            cluster.connect(ep0, ep1)
            cluster.step()

    cycle()  # warm lazy module/interpreter state
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        cycle()
    after = len(os.listdir("/proc/self/fd"))
    assert after == before, "LiveCluster teardown leaked file descriptors"
