"""A live AM peer in its own OS process — something a test can SIGKILL.

The in-process crash twins (``LiveAm.crash()`` / ``restart()``) model a
dying process faithfully at the protocol level, but the strongest
evidence for the recovery design is the real thing: a peer process that
is actually ``kill -9``'d mid-flight — kernel socket buffers dropped on
the floor, retransmission timers never fired, no destructor mercy — and
then respawned as a fresh incarnation that must HELLO its way back in.

Run as a module (``python -m repro.live.peer``) this file is the child:
a one-node :class:`~repro.live.backend.LiveCluster` on a UDP loopback
socket that wires one channel back to the parent, answers handler 1
with an echo reply on the cluster's runner, and prints two lines the
parent harness reads::

    ADDR <host> <port>
    READY <epoch>

:class:`PeerProcess` is the parent-side harness: ``spawn`` /
``kill`` (SIGKILL) / ``respawn`` (same AM node id, epoch + 1 via
``restart()``, fresh socket).  Because the wire's demux tag is the
``(dst_port, src_node, src_port)`` triple — not the socket address —
the respawned child is the *same peer* to the parent's AM layer, and
only the parent's channel tag needs re-targeting (``retarget``) so its
outbound datagrams chase the child's new socket.

Port convention: both sides use U-Net port 1 (the first allocated), so
neither process needs to be told the other's port out of band.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from typing import Optional, Tuple

from ..am.am import AmConfig
from ..core.channels import register_channel
from ..core.errors import UNetError
from .am import LiveAm, LiveRequestContext
from .backend import LiveCluster, LiveTag, LiveUserEndpoint
from .clock import WallClock
from .transport import UdpLoopbackTransport

__all__ = ["PeerProcess", "PEER_PORT", "peer_am_config"]

#: the fixed U-Net port both sides use (first allocate_port() result)
PEER_PORT = 1
#: the parent's AM node id, and the one channel each side opens
_PARENT_NODE = 0
_CHANNEL = 0

#: child safety cap: an orphaned child exits on its own after this long
_CHILD_LIFETIME_US = 60_000_000.0


def peer_am_config(**overrides) -> AmConfig:
    """The recovery-enabled AM config both sides of a kill test share."""
    defaults = dict(
        recovery=True,
        window=4,
        retransmit_timeout_us=30_000.0,
        dead_after_timeouts=4,
        hello_retry_us=20_000.0,
        ack_every=1,
    )
    defaults.update(overrides)
    return AmConfig(**defaults)


# --------------------------------------------------------------------- child
def _child_main() -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="repro.live.peer")
    parser.add_argument("--node", type=int, required=True)
    parser.add_argument("--parent-host", required=True)
    parser.add_argument("--parent-port", type=int, required=True)
    parser.add_argument("--epoch", type=int, default=0)
    parser.add_argument("--restart", action="store_true",
                        help="come up as a restarted incarnation: epoch+1 "
                             "and a HELLO handshake toward the parent")
    parser.add_argument("--rto-us", type=float, default=30_000.0)
    parser.add_argument("--dead-after", type=int, default=4)
    parser.add_argument("--hello-retry-us", type=float, default=20_000.0)
    parser.add_argument("--lifetime-us", type=float, default=_CHILD_LIFETIME_US)
    args = parser.parse_args()

    with LiveCluster(lambda name: UdpLoopbackTransport(name=name), WallClock()) as cluster:
        backend = cluster.add_node(f"peer{args.node}")
        user = backend.create_user_endpoint(rx_buffers=32)
        port = backend.allocate_port()
        register_channel(user.endpoint, _CHANNEL,
                         LiveTag((args.parent_host, args.parent_port), PEER_PORT,
                                 args.node, port),
                         peer=f"n{_PARENT_NODE}")
        backend.demux.register((port, _PARENT_NODE, PEER_PORT),
                               user.endpoint, _CHANNEL)
        config = peer_am_config(epoch=args.epoch,
                                retransmit_timeout_us=args.rto_us,
                                dead_after_timeouts=args.dead_after,
                                hello_retry_us=args.hello_retry_us)
        am = LiveAm(args.node, user, config)
        am.connect_peer(_PARENT_NODE, _CHANNEL)

        def echo(ctx: LiveRequestContext) -> None:
            ctx.reply(args=ctx.args, data=ctx.data)

        am.register_handler(1, echo)

        host, sockport = backend.transport.address
        sys.stdout.write(f"ADDR {host} {sockport}\n")
        sys.stdout.flush()
        if args.restart:
            am.restart()
        sys.stdout.write(f"READY {am.epoch}\n")
        sys.stdout.flush()
        # serve on the cluster's runner until killed, or the lifetime ends
        cluster.run_until(lambda: False, args.lifetime_us, (am,))
    return 0


# -------------------------------------------------------------------- parent
class PeerProcess:
    """Parent-side lifecycle of one killable live AM peer process."""

    def __init__(self, parent_address: Tuple[str, int], node: int = 1,
                 rto_us: float = 30_000.0, dead_after: int = 4,
                 hello_retry_us: float = 20_000.0) -> None:
        self.parent_address = parent_address
        self.node = node
        self.rto_us = rto_us
        self.dead_after = dead_after
        self.hello_retry_us = hello_retry_us
        #: the epoch the *next* spawn starts from (restart bumps it)
        self.epoch = 0
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        self.kills = 0

    # -- lifecycle ---------------------------------------------------------
    def spawn(self, restart: bool = False) -> Tuple[str, int]:
        """Start the child; returns its socket address.

        With ``restart=True`` the child comes up as a restarted
        incarnation of the previous one: same AM node id, epoch + 1, and
        it opens with the HELLO handshake.
        """
        if self.proc is not None and self.proc.poll() is None:
            raise UNetError("peer process is already running")
        host, port = self.parent_address
        cmd = [sys.executable, "-m", "repro.live.peer",
               "--node", str(self.node),
               "--parent-host", host,
               "--parent-port", str(port),
               "--epoch", str(self.epoch),
               "--rto-us", str(self.rto_us),
               "--dead-after", str(self.dead_after),
               "--hello-retry-us", str(self.hello_retry_us)]
        if restart:
            cmd.append("--restart")
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                                     text=True)
        self.address = self._read_addr()
        ready = self._read_line()
        if not ready.startswith("READY "):
            raise UNetError(f"peer process said {ready!r}, expected READY")
        self.epoch = int(ready.split()[1])
        return self.address

    def kill(self) -> None:
        """SIGKILL the child: no cleanup, no goodbye — a real crash."""
        if self.proc is None or self.proc.poll() is not None:
            return
        os.kill(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()  # a respawn replaces ``proc``: our end of its pipe goes now
        self.kills += 1

    def respawn(self) -> Tuple[str, int]:
        """Bring the killed peer back as the next incarnation."""
        if self.proc is not None and self.proc.poll() is None:
            raise UNetError("kill() the peer before respawning it")
        return self.spawn(restart=True)

    def stop(self) -> None:
        """Final teardown (idempotent): kill and reap the child."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            os.kill(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None

    def __enter__(self) -> "PeerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- parent wiring -----------------------------------------------------
    def wire_parent(self, user: LiveUserEndpoint) -> None:
        """Create the parent's channel + demux row toward the child."""
        if self.address is None:
            raise UNetError("spawn() the peer before wiring the parent")
        backend = user.backend
        port = backend.allocate_port()
        register_channel(user.endpoint, _CHANNEL,
                         LiveTag(self.address, PEER_PORT,
                                 _PARENT_NODE, port),
                         peer=f"peer{self.node}")
        backend.demux.register((port, self.node, PEER_PORT),
                               user.endpoint, _CHANNEL)

    def retarget(self, user: LiveUserEndpoint) -> None:
        """Point the parent's existing channel at the respawned socket.

        The demux triple is unchanged (same nodes, same U-Net ports), so
        only the destination address moves.
        """
        if self.address is None:
            raise UNetError("no live peer address to retarget to")
        binding = user.endpoint.channels.get(_CHANNEL)
        if binding is None:
            raise UNetError(f"parent has no channel {_CHANNEL}")
        binding.tag.dest_address = self.address

    # -- internals ---------------------------------------------------------
    def _read_line(self) -> str:
        assert self.proc is not None and self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            raise UNetError("peer process exited before completing handshake")
        return line.strip()

    def _read_addr(self) -> Tuple[str, int]:
        line = self._read_line()
        if not line.startswith("ADDR "):
            raise UNetError(f"peer process said {line!r}, expected ADDR")
        _tag, host, port = line.split()
        return (host, int(port))


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    sys.exit(_child_main())
