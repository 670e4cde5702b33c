"""Quiescence detection for the Converse runtime.

Charm++'s CkStartQD: detect the moment when no messages are in flight
and no handler is executing anywhere.  The classic four-counter scheme
(Sinha/Kalé) — each PE tracks messages created and processed; the
runtime repeatedly reduces (created, processed) over all PEs and
declares quiescence after two consecutive rounds with equal, unchanged
totals (two rounds close the race with in-flight messages).

Our implementation piggybacks on the simulation: a detector process
samples the runtime's global counters, and each sampling round is
*charged* — in simulated time and in message counts — as the
spanning-tree reduction + broadcast it stands for: ``2 * (P - 1)``
protocol messages per round and a latency of two tree traversals
(send + wire + receive per level, ``ceil(log2 P)`` levels).  The
charges are mirrored into ``runtime.qd_rounds`` /
``runtime.qd_protocol_msgs`` and surface as the ``qd.*`` trace
counters.  A single-PE runtime needs no reduction, so its rounds stay
free — detection on an idle 1-PE system remains effectively immediate.

The in-flight test also counts packets held by the reliability layer
(:mod:`repro.faults`): a message awaiting ACK/retransmit is invisible
to every FIFO/queue but is *not* yet processed, and ignoring it lets
the detector declare quiescence while a retransmit is still pending —
the message race this PR's regression test pins down.

QoS accounting (see ``_totals``): best-effort and FRESH sends never
count as created or in-flight — dropping one must not block
quiescence — and transport-internal ACK traffic is excluded from every
counter; given-up reliable sends are credited back so a partitioned
network still quiesces once the transport abandons them.
"""

from __future__ import annotations

import math
from typing import Optional

from ..bgq.params import CYCLES_PER_US
from ..sim import Environment, Event

__all__ = ["QuiescenceDetector"]


class QuiescenceDetector:
    """Detects global quiescence of a :class:`ConverseRuntime`."""

    def __init__(self, runtime, poll_interval_us: float = 5.0) -> None:
        self.runtime = runtime
        self.env: Environment = runtime.env
        self.poll_interval = poll_interval_us * CYCLES_PER_US
        self.rounds = 0
        self.protocol_msgs = 0
        self._armed: Optional[Event] = None
        # Protocol cost of one reduction+broadcast round over P PEs:
        # every non-root contributes up the spanning tree and receives
        # the broadcast back down it.
        p = runtime.params
        npes = len(runtime.pes)
        self.msgs_per_round = 2 * (npes - 1) if npes > 1 else 0
        depth = math.ceil(math.log2(npes)) if npes > 1 else 0
        self.round_cost = 2.0 * depth * (
            p.converse_send_instr + p.nic_latency + p.converse_recv_instr
        )

    # -- counters ------------------------------------------------------------
    def _totals(self) -> tuple:
        rt = self.runtime
        # Cumulative sends through the machine layer vs executions.
        # Messages seeded directly into a PE's local queue only inflate
        # `processed`, so the quiescent condition is processed >= sent.
        #
        # Accounting rules (the QoS contract, docs/ARCHITECTURE.md):
        # * `created` counts reliable machine-layer sends only.  Best-
        #   effort/FRESH sends (rt.best_effort_sends) may legally never
        #   execute anywhere — charging them would wedge the detector
        #   the first time one is dropped.  A *delivered* best-effort
        #   message inflates `processed` instead, which the >= condition
        #   absorbs.
        # * Transport ACKs are excluded on every axis: posted outside
        #   the machine layer (not in messages_sent), consumed by the
        #   reliability gate before dispatch (not in messages_executed),
        #   unstamped (never in rel.pending).  Their only footprint is
        #   the FIFO/queue occupancy below while one is physically in
        #   flight — which is exactly the non-quiescent window.
        created = rt.messages_sent
        processed = 0
        for pe in rt.pes:
            processed += pe.messages_executed
        # In-flight state: MU injection queues, reception FIFOs, posted
        # work, messages parked in each PE's scheduler structures, and
        # stamped sends the reliability transport has not yet seen ACKed
        # (a retransmit-pending message is in flight even when no FIFO
        # holds a packet for it).
        pending = 0
        for proc in rt.processes:
            for ctx in proc.contexts:
                pending += len(ctx.rfifo) + len(ctx.work) + len(ctx.completions)
                pending += len(ctx.ififo)
            for ctx in proc.client.contexts:
                rel = ctx.reliability
                if rel is not None:
                    pending += rel.in_flight
                    # A given-up send was `created` but will never be
                    # executed; credit it as processed or a partitioned
                    # network never satisfies processed >= created.
                    # (Give-ups on PAMI-level traffic that never touched
                    # messages_sent only widen the >= margin.)
                    processed += rel.gave_up
        for pe in rt.pes:
            pending += len(pe.queue) + len(pe.local_q) + len(pe._ready)
        return created, processed, pending

    def start(self) -> Event:
        """Arm the detector; the returned event fires at quiescence."""
        if self._armed is not None and not self._armed.triggered:
            return self._armed
        done = self.env.event()
        self._armed = done
        self.env.process(self._detect(done), name="quiescence-detector")
        return done

    def _detect(self, done: Event):
        env = self.env
        rt = self.runtime
        prev = None
        stable = 0
        while True:
            # One detection round = poll interval + the latency of the
            # counter reduction/broadcast it models; the tree messages
            # are charged to the runtime's protocol ledger.
            yield env.timeout(self.poll_interval + self.round_cost)
            self.rounds += 1
            self.protocol_msgs += self.msgs_per_round
            rt.qd_rounds += 1
            rt.qd_protocol_msgs += self.msgs_per_round
            totals = self._totals()
            created, processed, pending = totals
            if pending == 0 and processed >= created and prev == totals:
                stable += 1
                if stable >= 2:
                    # Two unchanged, drained rounds: quiescent.
                    if not done.triggered:
                        done.succeed(env.now)
                    return
            else:
                stable = 0
            prev = totals
