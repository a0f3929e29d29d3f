"""The reference model: an executable spec of U-Net + AM semantics.

This is the oracle of the differential checker — a deliberately small,
substrate-free interpreter of the semantics both substrates must agree
on:

* **U-Net endpoint semantics** — a receiver owns a bounded receive
  queue and a pool of donated buffers; an arrival finding no room is
  *shed* (classified ``recv_queue_drops`` / ``no_buffer_drops``) and
  the sender is never told; unknown tags and quarantine never occur in
  a clean run.
* **AM reliability** — per-peer sequence numbers, cumulative acks,
  go-back-N head retransmission after a timeout without progress.
* **AM flow control** — a bounded window of unacked requests; under
  ``credit_flow``, sends additionally gate on the peer's advertised
  receive capacity minus in-flight packets (replies bypass both gates).
* **SACK mode** — the receiver holds out-of-order requests in a
  bounded reorder buffer and advertises them in a SACK block on every
  (re-)ack; the sender keeps a scoreboard and selectively retransmits
  only the holes, once per round, with the RTO falling back to the
  first unSACKed packet.  Dispatch order is still sequence order.
* **ECN mode** — a scheduled ``mark`` fault sets CE on a request's
  first transmission; the receiver notes it and echoes it on its next
  outbound packet, and the sender backs off at most once per round
  (the predicted mark/echo/backoff counts are part of the trace).
  Marks are defined on the request path at occurrence 0 only — and
  pure acks are never scripted-faulted — so an echo always reaches the
  sender and the ``>= 1 backoff`` prediction is timing-independent.

Time is abstract: one tick ~ 10 us, links cost a fixed 2 ticks, the
retransmission timeout a fixed 400 ticks.  None of those constants need
to match the substrates — the model defines *what* must happen (which
messages get dispatched, in what order, what may be dropped and why,
how many retransmissions a fault schedule can force), not *when*.  The
checker therefore compares delivery traces exactly but retransmission
counts only within tolerance bands.

Fault schedules address packets by ``(direction, seq, occurrence)``
exactly as :mod:`repro.faults.scripted` does on a real link, so the
same :class:`~repro.conformance.schedule.ConformanceCase` drives the
model and both substrates.

**Crash recovery.**  A case's ``lifecycle`` events kill and revive the
receiver at content-addressed points, and the model interprets the
recovery contract: a crashed incarnation silently drains arrivals (no
acks, no drops recorded — the NI keeps delivering into a dead process's
rings); a restart starts a fresh incarnation whose sequence space
begins at zero and whose HELLO (carrying the new epoch) reaches the
sender one link time later; traffic still stamped for the dead
incarnation is fenced as ``stale_epoch_drops`` — including, always, the
head retransmission whose arrival triggered the restart; and on HELLO
the sender *abandons* every outstanding send (``peer_dead_drops``,
listed in :attr:`ObservedTrace.abandoned`) rather than replaying into the
new numbering — the at-most-once contract.  Crash cases are
request-only and fence on the forward path only; the model refuses
anything wider rather than guess at semantics it does not define.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..am.spec import (ecn_backoff_allowed, reorder_admit, sack_block,
                       sack_retransmit_plan)
from .observe import ObservedTrace
from .schedule import ConformanceCase

__all__ = ["run_reference", "TICK_US", "TICK_LIMIT"]

#: one model tick in (nominal) microseconds — only used to convert a
#: schedule's delay_us into ticks
TICK_US = 10.0
#: one-way link latency, in ticks
LINK_TICKS = 2
#: retransmit a sender's window head after this long without progress
RTO_TICKS = 400
#: period of the credit-refresh advertisement when credit_flow is on
CREDIT_REFRESH_TICKS = 40
#: give up (completed=False) after this many ticks
TICK_LIMIT = 60_000

#: data blocks above this need a receive buffer rather than landing
#: inline in the descriptor (the tighter of the two substrates' paths:
#: the ATM single-cell fast path tops out at 40 wire bytes ~ 12 data
#: bytes once the 26-byte AM header and 2-byte credit word are paid)
INLINE_DATA_MAX = 12


class _Sender:
    """One direction's reliability sender: window, unacked, schedule."""

    def __init__(self, events) -> None:
        self.next_seq = 0
        self.unacked: Dict[int, object] = {}
        self.last_progress = 0
        self.occurrence: Dict[int, int] = {}
        self.events = {(e.seq, e.occurrence): e for e in events}
        self.fired: List = []
        self.rexmit = 0
        #: SACK scoreboard: seqs the receiver reported holding, and the
        #: holes already selectively retransmitted this round
        self.sacked: set = set()
        self.sack_rexmitted: set = set()

    def transmit(self, seq: int) -> Optional[Tuple[int, bool, bool]]:
        """Run one transmission of ``seq`` through the fault schedule.

        Returns None when the copy is dropped, else ``(delay_ticks,
        duplicated, marked)`` for the surviving copy.
        """
        occ = self.occurrence.get(seq, 0)
        self.occurrence[seq] = occ + 1
        event = self.events.get((seq, occ))
        if event is not None:
            self.fired.append(event)
        if event is not None and event.action == "drop":
            return None
        delay = LINK_TICKS
        if event is not None and event.action == "delay":
            delay += max(1, round(event.delay_us / TICK_US))
        return (delay, (event is not None and event.action == "dup"),
                (event is not None and event.action == "mark"))

    def ack(self, ack_value: int) -> bool:
        """Absorb a cumulative ack; True when it made progress."""
        acked = [s for s in self.unacked if s < ack_value]
        for s in acked:
            del self.unacked[s]
            self.sacked.discard(s)
            self.sack_rexmitted.discard(s)
        return bool(acked)

    def head(self) -> Optional[int]:
        """The retransmission head: first unSACKed, else the plain head
        (everything SACKed means the cumulative ack reporting it may
        itself have been lost — liveness beats elegance)."""
        if not self.unacked:
            return None
        unsacked = [s for s in self.unacked if s not in self.sacked]
        return min(unsacked) if unsacked else min(self.unacked)


def run_reference(case: ConformanceCase) -> ObservedTrace:
    """Interpret ``case`` under the reference semantics: the trace every
    substrate's must agree with, as substrate ``"model"``."""
    config = case.am_config()
    window = config.window
    credit_flow = config.credit_flow
    sack_mode = config.ack_mode == "sack"
    ecn_mode = config.congestion == "ecn"
    horizon = config.sack_horizon
    consume_period = max(1, round(case.dispatch_overhead_us / TICK_US))

    if ecn_mode and any(f.action == "mark" and
                        (f.direction != "fwd" or f.occurrence != 0)
                        for f in case.faults):
        raise ValueError(
            "the reference model defines congestion marks on the request "
            "path at first transmission only ('fwd', occurrence 0): a mark "
            "on a retransmission has no substrate-invariant fate")

    if case.lifecycle:
        if any(e.direction != "fwd" for e in case.lifecycle):
            raise ValueError(
                "the reference model defines lifecycle faults on the "
                "request path only ('fwd': the victim is the receiver)")
        if any(m.rpc for m in case.messages):
            raise ValueError(
                "crash cases must be request-only: a reply in flight at "
                "the crash has no substrate-invariant fate")

    fwd = _Sender(case.fwd_faults())
    rev = _Sender(case.rev_faults())
    remote_credit: Optional[int] = None  # node0's view of node1's capacity

    # --- crash recovery state ---------------------------------------
    life_events = {(e.seq, e.occurrence): e for e in case.fwd_lifecycle()}
    life_seen: Dict[int, int] = {}  # per-seq arrivals at node1's ingress
    life_fired: List = []
    crashed1 = False
    restarts1 = 0    # node1's incarnation count (its epoch)
    sender_gen = 0   # node0's view of node1's incarnation
    abandoned: List[int] = []

    # node1: the receiver of requests
    expected1 = 0
    queue1: List[Tuple[int, bool, bool]] = []  # (msg id, rpc?, holds buffer?)
    free1 = case.rx_buffers
    pending_replies: List[int] = []  # req_seqs awaiting a reply send
    #: SACK reorder buffer: held future packets, seq -> payload tuple
    held1: Dict[int, Tuple[int, bool, bool]] = {}
    # --- ECN state ---------------------------------------------------
    ecn_marks1 = 0       # marks node1's AM layer noted
    ecn_echoes1 = 0      # echoes node1 drained onto outbound packets
    pending_echoes1 = 0
    ecn_backoffs0 = 0    # backoffs node0 took
    ecn_round_end: Optional[int] = None
    # node0: the receiver of replies (roomy: never sheds)
    expected0 = 0

    dispatched: List[int] = []
    replies: List[int] = []
    drop_classes: Dict[str, int] = {}
    agenda: Dict[int, List[Tuple[str, tuple]]] = {}

    def post(tick: int, kind: str, *data) -> None:
        agenda.setdefault(tick, []).append((kind, data))

    def send(sender: _Sender, seq: int, tick: int) -> None:
        """Transmit ``seq`` through its direction's fault schedule and
        post the surviving copy, and its duplicate, for arrival."""
        sent = sender.transmit(seq)
        if sent is None:
            return
        delay, dup, marked = sent
        if sender is fwd:
            msg_id, message = fwd.unacked[seq]
            data = ("fwd_data", seq, msg_id, message.rpc,
                    message.size > INLINE_DATA_MAX, sender_gen, marked)
        else:
            data = ("rev_data", seq, rev.unacked[seq])
        for extra in range(1 + dup):
            post(tick + delay + extra, *data)

    def capacity1() -> int:
        return max(0, min(case.recv_queue_depth - len(queue1), free1))

    def post_ack1(tick: int) -> None:
        """Node1's (re-)ack, stamped exactly as a transmit would stamp
        it: current cumulative ack, capacity, SACK block, and — in ECN
        mode — one drained congestion echo."""
        nonlocal pending_echoes1, ecn_echoes1
        bits = sack_block(expected1, held1, horizon) if sack_mode else None
        ece = False
        if ecn_mode and pending_echoes1 > 0:
            pending_echoes1 -= 1
            ecn_echoes1 += 1
            ece = True
        post(tick, "ack_to_fwd", expected1, capacity1(), bits, ece)

    op_index = 0
    waiting_reply: Optional[int] = None

    t = 0
    completed = False
    while t <= TICK_LIMIT:
        # 1. arrivals scheduled for this tick, in posting order
        for kind, data in agenda.pop(t, ()):  # noqa: B020 - consumed once
            if kind == "fwd_data":
                seq, msg_id, rpc, needs_buffer, gen, marked = data
                occ = life_seen.get(seq, 0)
                life_seen[seq] = occ + 1
                event = life_events.get((seq, occ))
                if event is not None:
                    life_fired.append(event)
                    if event.kind == "crash":
                        # the victim dies before the trigger is delivered;
                        # whatever sat undispatched in its receive queue
                        # dies with it (buffers recycle as the crashed
                        # dispatch loop drains the rings)
                        crashed1 = True
                        free1 += sum(1 for (_m, _r, hb) in queue1 if hb)
                        queue1.clear()
                        continue
                    # restart: a fresh incarnation numbering from zero;
                    # its HELLO carries the new epoch + horizon 0.  The
                    # trigger itself reaches the NEW incarnation still
                    # stamped for the dead one and falls to the fence.
                    crashed1 = False
                    restarts1 += 1
                    expected1 = 0
                    post(t + LINK_TICKS, "hello_to_fwd", restarts1)
                if crashed1:
                    continue  # drained unprocessed by the dead incarnation
                if gen < restarts1:
                    # two-sided epoch fence: traffic stamped by (or for)
                    # a dead incarnation never reaches a handler
                    drop_classes["stale_epoch_drops"] = (
                        drop_classes.get("stale_epoch_drops", 0) + 1)
                    continue
                if sack_mode:
                    admit = reorder_admit(expected1, seq, horizon)
                    if admit == "deliver":
                        if len(queue1) >= case.recv_queue_depth:
                            drop_classes["recv_queue_drops"] = drop_classes.get("recv_queue_drops", 0) + 1
                            continue  # U-Net shed: AM never saw it, no ack
                        if needs_buffer and free1 <= 0:
                            drop_classes["no_buffer_drops"] = drop_classes.get("no_buffer_drops", 0) + 1
                            continue
                    # a congestion mark is noted only by packets the AM
                    # layer is seeing for the first time — duplicates of
                    # already-held or already-delivered seqs are rejected
                    # before their CE bit is looked at
                    fresh = (admit == "deliver"
                             or (admit == "hold" and seq not in held1))
                    if ecn_mode and marked and fresh:
                        ecn_marks1 += 1
                        pending_echoes1 += 1
                    if admit == "deliver":
                        expected1 += 1
                        if needs_buffer:
                            free1 -= 1
                        queue1.append((msg_id, rpc, needs_buffer))
                        # the hole just filled: drain the reorder buffer
                        # behind it, in sequence order — never early
                        while expected1 in held1:
                            h_id, h_rpc, h_nb = held1.pop(expected1)
                            if h_nb:
                                free1 -= 1
                            queue1.append((h_id, h_rpc, h_nb))
                            expected1 += 1
                    elif admit == "hold":
                        held1.setdefault(seq, (msg_id, rpc, needs_buffer))
                elif seq == expected1:
                    if len(queue1) >= case.recv_queue_depth:
                        drop_classes["recv_queue_drops"] = drop_classes.get("recv_queue_drops", 0) + 1
                        continue  # U-Net shed: AM never saw it, no ack
                    if needs_buffer and free1 <= 0:
                        drop_classes["no_buffer_drops"] = drop_classes.get("no_buffer_drops", 0) + 1
                        continue
                    expected1 += 1
                    if life_events:
                        # crash cases: dispatch eagerly, because the ack
                        # posted below implies dispatch — ack_every=1
                        # acknowledges only *dispatched* requests, which
                        # is what makes acked/unacked at crash time the
                        # exact delivered/abandoned fate split
                        dispatched.append(msg_id)
                    else:
                        if needs_buffer:
                            free1 -= 1
                        queue1.append((msg_id, rpc, needs_buffer))
                # in-order, old, and future packets all re-ack (go-back-N
                # and SACK alike; the SACK block rides the re-ack)
                post_ack1(t + LINK_TICKS)
            elif kind == "rev_data":
                seq, req_seq = data
                if seq == expected0:
                    expected0 += 1
                    replies.append(req_seq)
                post(t + LINK_TICKS, "ack_to_rev", expected0)
            elif kind == "ack_to_fwd":
                ack_value, advertised, bits, ece = data
                if fwd.ack(ack_value):
                    fwd.last_progress = t
                if sack_mode and bits:
                    # selective retransmit: the scoreboard's holes go out
                    # now, once per round, without waiting for an RTO
                    sacked, holes = sack_retransmit_plan(
                        list(fwd.unacked), ack_value, bits)
                    fwd.sacked.update(sacked)
                    for hole in holes:
                        if hole in fwd.sack_rexmitted or hole in fwd.sacked:
                            continue
                        fwd.sack_rexmitted.add(hole)
                        fwd.rexmit += 1
                        send(fwd, hole, t)
                if ecn_mode and ece and ecn_backoff_allowed(ack_value,
                                                           ecn_round_end):
                    # mark-echo AIMD, once per round: react, then ignore
                    # echoes until the ack passes the recorded edge
                    ecn_round_end = fwd.next_seq
                    ecn_backoffs0 += 1
                if credit_flow:
                    remote_credit = advertised - len(fwd.unacked)
            elif kind == "hello_to_fwd":
                (gen,) = data
                if gen > sender_gen:
                    sender_gen = gen
                    # at-most-once: a memoryless incarnation can confirm
                    # nothing outstanding — abandon, never replay
                    ids = [mid for (mid, _m) in fwd.unacked.values()]
                    abandoned.extend(ids)
                    if ids:
                        drop_classes["peer_dead_drops"] = (
                            drop_classes.get("peer_dead_drops", 0) + len(ids))
                    fwd.unacked.clear()
                    fwd.sacked.clear()
                    fwd.sack_rexmitted.clear()
                    fwd.next_seq = 0
                    fwd.last_progress = t
                    remote_credit = None
            elif kind == "ack_to_rev":
                (ack_value,) = data
                if rev.ack(ack_value):
                    rev.last_progress = t
        if waiting_reply is not None and waiting_reply in replies:
            waiting_reply = None

        # 2. receiver consumption: node1 dispatches one queued message
        #    per consume period (the AM dispatch loop's pace)
        if queue1 and t % consume_period == 0:
            msg_id, rpc, held_buffer = queue1.pop(0)
            dispatched.append(msg_id)
            if held_buffer:
                free1 += 1
            if rpc:
                pending_replies.append(msg_id)  # fwd seq == msg id
        # periodic credit refresh (what un-sticks a stalled sender);
        # only while the conversation is live, so the agenda can drain
        if (credit_flow and t % CREDIT_REFRESH_TICKS == 0 and t > 0
                and (fwd.unacked or op_index < len(case.messages))):
            post_ack1(t + LINK_TICKS)

        # 3. reply sends: sequenced and retransmitted but window-exempt
        while pending_replies:
            req_seq = pending_replies.pop(0)
            seq = rev.next_seq
            rev.next_seq += 1
            rev.unacked[seq] = req_seq
            rev.last_progress = t
            send(rev, seq, t)

        # 4. workload sends: window- and credit-gated, RPCs block
        while op_index < len(case.messages) and waiting_reply is None:
            if len(fwd.unacked) >= window:
                break
            if credit_flow and remote_credit is not None and remote_credit <= 0:
                break  # credit stall; the refresh loop will un-stick us
            message = case.messages[op_index]
            seq = fwd.next_seq
            fwd.next_seq += 1
            # seq is not the message id once a restart resets numbering
            fwd.unacked[seq] = (op_index, message)
            fwd.last_progress = t
            if credit_flow and remote_credit is not None:
                remote_credit -= 1
            if message.rpc:
                waiting_reply = seq
            send(fwd, seq, t)
            op_index += 1

        # 5. go-back-N: retransmit a stalled window's head
        for sender in (fwd, rev):
            if sender.unacked and t - sender.last_progress >= RTO_TICKS:
                # a timeout opens a new selective-retransmit round
                sender.sack_rexmitted.clear()
                sender.rexmit += 1
                sender.last_progress = t
                send(sender, sender.head(), t)

        # 6. termination: workload done, nothing in flight, queues dry
        if (op_index == len(case.messages) and waiting_reply is None
                and not fwd.unacked and not rev.unacked
                and not pending_replies and not queue1 and not held1
                and not agenda):
            completed = True
            break
        t += 1

    return ObservedTrace(
        substrate="model",
        completed=completed,
        dispatched=dispatched,
        replies=replies,
        rexmit=fwd.rexmit + rev.rexmit,
        fired=fwd.fired + rev.fired,
        drop_classes=drop_classes,
        completion_time_us=t * TICK_US,
        abandoned=abandoned,
        lifecycle_fired=life_fired,
        ecn_marks=ecn_marks1,
        ecn_echoes=ecn_echoes1,
        ecn_backoffs=ecn_backoffs0,
    )
