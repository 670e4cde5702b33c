"""Converse processing elements and the message-driven scheduler loop.

A PE is one worker thread running the Converse scheduler: dequeue a
message, invoke its handler, repeat; when both queues are empty, enter
the idle poll loop (§III-D).  The optimized idle poll spins on the L2
atomic producer counter of the PE's message queue — each poll is an L2
load that stalls ~60 cycles, so the idle thread barely occupies the
core's issue slots and active sibling threads keep nearly full
throughput.  The naive alternative (spin on an L1-cached flag) detects
work a little sooner but burns an issue slot every cycle.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, TYPE_CHECKING

from ..bgq.node import HWThread
from ..bgq.params import BGQParams
from ..bgq.wakeup import arm_any
from ..queues import L2AtomicQueue, MutexQueue
from ..sim import Environment
from ..trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from .machine import ConverseProcess, ConverseRuntime
from .messages import ConverseMessage

__all__ = ["PE"]

#: Slots in each PE's L2 atomic message queue.
_PE_QUEUE_SIZE = 1024


class PE:
    """A Charm++/Converse processing element bound to a hardware thread."""

    def __init__(
        self,
        runtime: "ConverseRuntime",
        process: "ConverseProcess",
        rank: int,
        local_index: int,
        thread: HWThread,
    ) -> None:
        self.runtime = runtime
        self.process = process
        self.rank = rank
        self.local_index = local_index
        self.thread = thread
        self.env: Environment = runtime.env
        self.params: BGQParams = runtime.params
        cfg = runtime.config
        if cfg.queue_kind == "l2":
            self.queue = L2AtomicQueue(
                self.env,
                thread.node.l2,
                size=_PE_QUEUE_SIZE,
                name=f"pe{rank}-queue",
                params=self.params,
            )
        else:
            self.queue = MutexQueue(self.env, name=f"pe{rank}-queue", params=self.params)
        #: Messages the PE sends to itself (no atomics needed).
        self.local_q: Deque[ConverseMessage] = deque()
        #: Scheduler queue: arrivals drain here and execute in arrival
        #: order.  Self-sends wait in ``local_q`` until the next poll, so
        #: one that lands while the queue drains runs after what drained.
        self._ready: Deque[ConverseMessage] = deque()
        #: PAMI context this PE advances itself (modes without comm threads).
        self.context = None
        # Native statistics: always maintained (an int add each; far
        # cheaper than tracer calls on the scheduler hot path) and
        # snapshotted into the tracer's counters at Tracer.finish().
        self.messages_executed = 0
        self.idle_entries = 0
        self.polls = 0
        self.msgs_sent = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Monotonic per-PE send sequence for provenance ids; only
        #: advanced on traced runs (the machine layer stamps
        #: ``(rank, msg_seq)`` on each outgoing message).
        self.msg_seq = 0

    # -- sending (called from inside handlers running on this PE) -----------
    def send(
        self,
        dst_rank: int,
        handler_id: int,
        nbytes: int,
        payload: Any = None,
        qos: Optional[int] = None,
        fresh_key: Any = None,
    ):
        """CmiSyncSend: deliver a message to another PE (generator).

        ``qos``/``fresh_key`` select delivery semantics per send
        (:mod:`repro.faults.qos`); None inherits the handler's default.
        """
        yield from self.runtime.send(
            self, dst_rank, handler_id, nbytes, payload, qos=qos, fresh_key=fresh_key
        )

    # -- scheduler -------------------------------------------------------------
    def start(self) -> None:
        self.env.process(self._scheduler(), name=f"pe{self.rank}")

    def enqueue_from(self, thread: HWThread, msg: ConverseMessage):
        """Producer-side enqueue into this PE's queue (generator)."""
        yield from self.queue.enqueue(thread, msg)

    def _poll_once(self):
        """One scheduler poll: returns a message or None (generator).

        Arrivals (self-sends, then the network/peer queue) drain into
        the PE's scheduler queue; the oldest message runs next.
        """
        self.polls += 1
        ready = self._ready
        local_q = self.local_q
        if local_q:
            ready.extend(local_q)
            local_q.clear()
        # has_ready() keeps the dequeue generator off the poll hot path
        # when the lockless queue provably has nothing: an empty L2
        # dequeue simulates zero events, so skipping it is trajectory
        # neutral (a MutexQueue always reports ready — it pays the mutex
        # even when empty).
        queue = self.queue
        while queue.has_ready():
            msg = yield from queue.dequeue(self.thread)
            if msg is None:
                break
            ready.append(msg)
        if ready:
            return ready.popleft()
        return None

    def _execute(self, msg: ConverseMessage):
        rec: Optional[Tracer] = self.runtime.tracer
        handler = self.runtime.handlers[msg.handler_id]
        t0 = 0.0
        if rec is not None:
            rec.begin(self.rank, self.runtime.handler_categories.get(msg.handler_id, "sched"))
            t0 = self.env.now
        result = handler(self, msg)
        if result is not None and hasattr(result, "__next__"):
            yield from result
        self.messages_executed += 1
        self.bytes_received += msg.nbytes
        # Receive-side buffer free (the Fig. 6/Fig. 8 contention source:
        # the buffer was allocated by whichever thread ran the dispatch).
        if msg.buffer is not None:
            yield from self.process.alloc.free(self.thread, msg.buffer)
            msg.buffer = None
        if rec is not None:
            if msg.msg_id is not None:
                # Inlined "exec" provenance append (schema in
                # repro.trace.core) — one per executed message.
                rec.provenance.append(
                    ("exec", msg.msg_id, self.rank, t0, self.env.now)
                )
            rec.begin(self.rank, "sched")

    def _scheduler(self):
        runtime = self.runtime
        rec = runtime.tracer
        advance_ctx = self.context is not None
        while not runtime.stopped:
            msg = yield from self._poll_once()
            if msg is not None:
                yield from self._execute(msg)
                continue
            progressed = 0
            if advance_ctx:
                if rec is not None:
                    rec.begin(self.rank, "comm")
                progressed = yield from self.context.advance(self.thread)
            if progressed:
                continue
            # Nothing to do: idle poll until the queue (or our context's
            # reception FIFO) shows activity.
            yield from self._idle_poll(advance_ctx)
        if rec is not None:
            rec.end(self.rank)

    def _idle_poll(self, advance_ctx: bool):
        p = self.params
        cfg = self.runtime.config
        self.idle_entries += 1
        rec = self.runtime.tracer
        if rec is not None:
            rec.begin(self.rank, "idle")
        if cfg.idle_poll == "l2":
            weight, detect = p.idle_poll_l2_weight, p.idle_poll_l2_detect
        else:
            weight, detect = p.idle_poll_naive_weight, p.idle_poll_naive_detect
        sources = [self.queue.wakeup]
        if advance_ctx:
            sources.append(self.context.rfifo.wakeup)
            sources.append(self.context.work.wakeup)
        sources.append(self.runtime.stop_wakeup)
        member = self.thread.core.register(weight)
        try:
            yield arm_any(sources, detect)
        finally:
            self.thread.core.unregister(member)
        if rec is not None:
            rec.begin(self.rank, "sched")
