"""Recovery: sequence-numbered sends, ACKs, retransmit, dedup.

One :class:`ReliableTransport` attaches to one
:class:`~repro.pami.context.PamiContext` (the runtime enables it on
every context whenever a fault plan is installed).  Every memory-FIFO
active message the context posts — eager data, RTS/ACK control, and
many-to-many traffic all funnel through ``PamiContext._post`` — is
handled per its QoS mode (:mod:`repro.faults.qos`):

* ``QOS_RELIABLE`` (default): stamped with a per-destination-endpoint
  sequence number and held in ``pending`` until the receiver's ACK
  arrives; an exponential-backoff timer reposts a fresh descriptor on
  timeout and gives up (counting ``gave_up``) after ``max_retries``.
* ``QOS_BEST_EFFORT``: never touches this transport at all — no seq
  stamp, no ``pending`` entry, no timer, no ACK.  The send-side hot
  path allocates nothing here (repro-lint F2 enforces that).
* ``QOS_BEST_EFFORT_FRESH``: :meth:`stamp_fresh` attaches a
  per-``(dest, key)`` generation number; the receive gate drops any
  arrival whose generation is not newer than the newest already seen
  on that flow (``stale_dropped``) — a newer send supersedes an
  undelivered, reordered, or duplicated older one.  Still no ACK, no
  retransmit, no ``pending`` entry.

Receive side, gated in ``PamiContext.advance`` before dispatch:

* messages whose descriptor was marked ``corrupted`` by the injector
  are discarded un-ACKed (the retransmit recovers; a corrupted
  best-effort message is simply lost);
* duplicates — already-seen sequence numbers — are suppressed but
  re-ACKed, because a suppressed duplicate usually means the first ACK
  was lost;
* out-of-order arrivals are *accepted* (active messages commute in
  this runtime; ordering is the application's concern) but counted as
  ``reordered_accepted``.

ACK packets themselves travel unreliably (no ACK-of-ACK): a lost ACK
costs one retransmit plus one duplicate suppression, nothing more.
ACKs are transport-internal in *both* directions of the accounting:
they are posted outside the machine layer (never counted in
``ConverseRuntime.messages_sent``), consumed before dispatch (never
counted in ``messages_executed``), unstamped (never in ``pending``) —
so the quiescence detector's totals exclude them entirely.

Dedup-window bound: a sender that gives up on seq N leaves a permanent
hole at the receiver; without a bound ``next_expected`` would never
pass it and ``early`` would grow with every later send.  When ``early``
reaches :data:`EARLY_WINDOW` entries the flow concludes the gap was
abandoned, skips ``next_expected`` forward to the oldest early seq
(counting the skipped holes in ``holes_skipped``), and drains the now-
contiguous prefix.  A late original for a skipped hole then suppresses
as an ordinary duplicate — delivery stays at-most-once either way.

Protocol cost model: ACK transmission is charged to the receiving
thread like any ``PAMI_Send_immediate``; retransmits are timer-driven
reposts with no thread charge (modelling an MU-resident retry engine —
a deliberate simplification, see docs/ARCHITECTURE.md).  Retransmit
timers are cancelled the moment their ACK lands
(:meth:`~repro.sim.engine.Event.cancel`), so a completed send leaves
no stale timer event in the heap.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

from .injector import FAULT_TRACK
from .plan import RetryPolicy

__all__ = [
    "RELIABLE_ACK_DISPATCH",
    "ACK_BYTES",
    "EARLY_WINDOW",
    "ReliableTransport",
    "RetryPolicy",
    "TRANSPORT_STATS",
    "transport_totals",
]

#: Dispatch id reserved for transport ACKs (below M2M's 0x7F; the
#: reliability gate consumes these before user dispatch ever runs).
RELIABLE_ACK_DISPATCH = 0x7E

#: Wire size of an ACK: (endpoint, seq) fits one small packet.
ACK_BYTES = 16

#: Receive-side dedup window: how many out-of-order sequence numbers a
#: flow buffers before concluding the gap below them was abandoned by a
#: given-up sender and skipping ``next_expected`` past the hole.  Large
#: enough that transient reordering (tens of packets on a congested
#: link) never trips it; a give-up strands the flow permanently, so any
#: finite bound eventually fires.
EARLY_WINDOW = 64


class _SendRecord:
    """One un-ACKed stamped send."""

    __slots__ = ("payload", "dest", "acked", "timer")

    def __init__(self, payload, dest) -> None:
        self.payload = payload
        self.dest = dest
        self.acked = False
        #: The armed retransmit :class:`~repro.sim.engine.Timeout`
        #: while the timer process is parked on one (else None).  The
        #: ACK path cancels it so the heap entry dies with the record.
        self.timer = None


class _RecvFlow:
    """Receive-side dedup state for one source endpoint."""

    __slots__ = ("next_expected", "early")

    def __init__(self) -> None:
        self.next_expected = 0
        #: Sequence numbers accepted ahead of ``next_expected``.
        self.early: Set[int] = set()

    def is_dup(self, seq: int) -> bool:
        return seq < self.next_expected or seq in self.early

    def accept(self, seq: int) -> Tuple[bool, int]:
        """Record ``seq`` as delivered; returns ``(in_order, holes)``.

        ``holes`` is the count of abandoned sequence numbers skipped
        when the bounded early-window forced ``next_expected`` past a
        permanent gap (0 on the normal path).
        """
        if seq == self.next_expected:
            self.next_expected += 1
            while self.next_expected in self.early:
                self.early.discard(self.next_expected)
                self.next_expected += 1
            return True, 0
        self.early.add(seq)
        if len(self.early) < EARLY_WINDOW:
            return False, 0
        # Window full: every seq in [next_expected, min(early)) was
        # abandoned by a given-up sender.  Skip the holes and drain the
        # contiguous prefix; late originals now suppress as duplicates.
        oldest = min(self.early)
        holes = oldest - self.next_expected
        self.next_expected = oldest + 1
        self.early.discard(oldest)
        while self.next_expected in self.early:
            self.early.discard(self.next_expected)
            self.next_expected += 1
        return False, holes


class ReliableTransport:
    """Per-context reliability: stamp, ACK, retransmit, dedup."""

    def __init__(self, ctx, policy: RetryPolicy) -> None:
        self.ctx = ctx
        self.policy = policy
        #: Set by the runtime when the run is traced (fault marks).
        self.tracer = None
        #: Un-ACKed sends, keyed by ``(dest_endpoint, seq)``.  The
        #: quiescence detector counts these as in-flight messages.
        #: Best-effort traffic never appears here.
        self.pending: Dict[Tuple[Tuple[int, int], int], _SendRecord] = {}
        self._next_seq: Dict[Tuple[int, int], int] = {}
        self._flows: Dict[Tuple[int, int], _RecvFlow] = {}
        #: FRESH send-side generation counters, keyed by
        #: ``(dest_node, dest_fifo, fresh_key)``.
        self._fresh_next: Dict[Tuple, int] = {}
        #: FRESH receive-side high-water marks, keyed by
        #: ``(src_node, src_fifo, fresh_key)``.
        self._fresh_seen: Dict[Tuple, int] = {}
        # Graceful-degradation counters (snapshotted into ``rel.*``).
        self.retries = 0
        self.gave_up = 0
        self.dup_suppressed = 0
        self.reordered_accepted = 0
        self.acks_sent = 0
        self.corrupt_dropped = 0
        #: FRESH arrivals superseded by a newer generation.
        self.stale_dropped = 0
        #: Abandoned sequence numbers skipped by the bounded dedup window.
        self.holes_skipped = 0
        #: Retransmit timers retired early by their ACK.
        self.timers_cancelled = 0

    def _mark(self, name: str) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.mark(FAULT_TRACK, name)

    @property
    def in_flight(self) -> int:
        """Stamped sends not yet ACKed (nor given up on)."""
        return len(self.pending)

    # -- send side ---------------------------------------------------------
    def stamp(self, payload, dest) -> None:
        """Assign a sequence number and arm the retransmit timer."""
        key = (dest[0], dest[1])
        seq = self._next_seq.get(key, 0)
        self._next_seq[key] = seq + 1
        payload.seq = seq
        rec = _SendRecord(payload, dest)
        self.pending[(key, seq)] = rec
        env = self.ctx.env
        env.process(
            self._retransmit(key, seq, rec),
            name=f"rel-retx-{key[0]}.{key[1]}-{seq}",
        )

    def stamp_fresh(self, payload, dest, fresh_key) -> None:
        """Attach a FRESH generation number; no pending entry, no timer."""
        k = (dest[0], dest[1], fresh_key)
        gen = self._fresh_next.get(k, 0)
        self._fresh_next[k] = gen + 1
        payload.fresh_key = fresh_key
        payload.fresh_gen = gen

    def _retransmit(self, key, seq, rec):
        env = self.ctx.env
        policy = self.policy
        timeout = policy.timeout_cycles
        attempts = 0
        while True:
            rec.timer = t = env.timeout(timeout)
            yield t
            rec.timer = None
            if rec.acked:
                return
            if attempts >= policy.max_retries:
                # Graceful degradation: stop resending and stop counting
                # this send as in-flight (or quiescence would never be
                # declared on a partitioned network).
                self.gave_up += 1
                self.pending.pop((key, seq), None)
                self._mark("rel.gave_up")
                return
            attempts += 1
            self.retries += 1
            self._mark("rel.retry")
            self.ctx._repost(rec.dest, rec.payload)
            timeout *= policy.backoff

    # -- receive side (gated in PamiContext.advance) -----------------------
    def on_receive(self, thread, payload, desc):
        """Generator; returns True when the message should dispatch."""
        if getattr(desc, "corrupted", False):
            # Damaged in flight (corrupt fault, or a lost fragment of a
            # multi-packet message): discard without ACK; the sender's
            # retransmit carries a clean copy (best-effort: just lost).
            self.corrupt_dropped += 1
            self._mark("rel.corrupt_dropped")
            return False
        if payload.dispatch_id == RELIABLE_ACK_DISPATCH:
            acker, seq = payload.data
            rec = self.pending.pop(((acker[0], acker[1]), seq), None)
            if rec is not None:
                rec.acked = True
                timer = rec.timer
                if timer is not None:
                    # Retire the armed retransmit timer in place: the
                    # parked timer process dies with it instead of
                    # waking once more at a backoff-grown delay.
                    timer.cancel()
                    rec.timer = None
                    self.timers_cancelled += 1
            return False  # transport-internal; never dispatched
        if payload.seq is None:
            # Unstamped: best-effort traffic (or a sender without the
            # transport).  FRESH sends carry a generation; anything not
            # newer than the flow's high-water mark is superseded.
            fresh_key = payload.fresh_key
            if fresh_key is None:
                return True
            src = payload.src_endpoint
            k = (src[0], src[1], fresh_key)
            seen = self._fresh_seen
            if payload.fresh_gen <= seen.get(k, -1):
                self.stale_dropped += 1
                self._mark("rel.stale_dropped")
                return False
            seen[k] = payload.fresh_gen
            return True
        src = (payload.src_endpoint[0], payload.src_endpoint[1])
        flow = self._flows.get(src)
        if flow is None:
            flow = _RecvFlow()
            self._flows[src] = flow
        if flow.is_dup(payload.seq):
            # Our ACK was probably lost: suppress, but ACK again.
            self.dup_suppressed += 1
            self._mark("rel.dup_suppressed")
            yield from self._send_ack(thread, payload)
            return False
        in_order, holes = flow.accept(payload.seq)
        if holes:
            self.holes_skipped += holes
            self._mark("rel.holes_skipped")
        if not in_order:
            self.reordered_accepted += 1
            self._mark("rel.reordered_accepted")
        yield from self._send_ack(thread, payload)
        return True

    def _send_ack(self, thread, payload):
        self.acks_sent += 1
        ctx = self.ctx
        yield from thread.compute(ctx.params.pami_send_imm_instr)
        ctx._post(
            payload.src_endpoint,
            RELIABLE_ACK_DISPATCH,
            ACK_BYTES,
            (ctx.endpoint, payload.seq),
        )


#: The per-transport statistics a run rolls up: the graceful-degradation
#: counters plus the sends still un-ACKed when the run stopped.
TRANSPORT_STATS = (
    "acks_sent", "retries", "gave_up", "dup_suppressed", "reordered_accepted",
    "corrupt_dropped", "stale_dropped", "holes_skipped", "timers_cancelled",
    "in_flight",
)


def transport_totals(contexts: Iterable) -> Dict[str, int]:
    """Each of :data:`TRANSPORT_STATS` summed over the contexts' transports.

    Contexts without a :class:`ReliableTransport` add nothing, so a run
    with no fault plan totals zero everywhere.
    """
    rels = [c.reliability for c in contexts if c.reliability is not None]
    return {name: sum(getattr(r, name) for r in rels) for name in TRANSPORT_STATS}
