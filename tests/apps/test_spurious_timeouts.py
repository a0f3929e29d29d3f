"""The spurious-timeout storm of the bulk radix sort on ATM — pinned.

``test_delayed_ack_timeouts.py`` explains why a 4-node sort on a
lossless network books a handful of AM timeouts: a block's ack waits
behind an incast at node 0 and lands after the sender's RTO check.
Doubled to 8 nodes, with 2 048 keys per node and bulk messages, the same
mechanism becomes a storm.  Every counter below is from one run (125.30
simulated ms, about 3 s wall on a 2-core Xeon):

* 750 AM retransmissions, against 749 duplicates at the receivers, so
  all but one resend carried a message that had already arrived;
* every drop and blackhole counter anywhere in the cluster reads 0.

Nothing is lost; acks are late.  The fix is an RTO or ack policy, and it
moves simulated figures, so it waits for the round's re-baseline
(ROADMAP item 3), which re-records this pin as 0 retransmissions.
"""

from repro.apps import RadixConfig, run_radix_sort
from repro.splitc import Cluster
from repro.telemetry import collect, total

NODES = 8
KEYS_PER_NODE = 2048
#: pinned from one run; item 3 of the ROADMAP re-records them
RETRANSMISSIONS = 750
DUPLICATES = 749
ELAPSED_MS = 125.30


def test_bulk_radix_sort_on_8_atm_nodes_retransmits_what_arrived():
    cluster = Cluster(NODES, "atm")
    result = run_radix_sort(cluster, RadixConfig(KEYS_PER_NODE, False))
    assert round(result.elapsed_us / 1000.0, 2) == ELAPSED_MS
    assert total(cluster.ams, "retransmissions") == RETRANSMISSIONS
    assert total(cluster.ams, "duplicates") == DUPLICATES
    losses = {key: value for key, value in collect(cluster).items()
              if "drop" in key.rpartition("/")[2]
              or key.endswith("/blackholed")}
    assert any(key.endswith("/blackholed") for key in losses)
    assert not any(losses.values()), {k: v for k, v in losses.items() if v}
