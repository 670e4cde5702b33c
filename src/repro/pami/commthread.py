"""PAMI communication threads (paper §II-B hardware context, §III-C design).

A communication thread asynchronously advances one or more PAMI
contexts.  When there is no messaging work it arms the wakeup unit on
its contexts' reception FIFOs and work queues and executes the ``wait``
instruction — consuming *no* core resources — and is awakened within a
low-overhead interrupt latency when a packet arrives or work is posted.

"Typically, a communication thread is enabled for four worker threads.
Multiple communication threads can accelerate messages from several
worker threads" [paper §III-C]: the mapping of worker threads to
communication threads lives in the Converse machine layer; this class
is the thread itself.  Its activity is what the paper's Fig. 9
utilization profiles attribute messaging overhead to — when tracing is
enabled (see :mod:`repro.trace` and docs/ARCHITECTURE.md) each comm
thread records ``comm``/``idle`` spans on its own track and feeds the
``commthread.*`` counters.
"""

from __future__ import annotations

from typing import List, Optional

from ..bgq.node import HWThread
from ..bgq.params import BGQParams, DEFAULT_PARAMS
from ..bgq.wakeup import arm_any
from ..sim import Environment
from .context import PamiContext

__all__ = ["CommThread"]


class CommThread:
    """A dedicated communication thread driving PAMI contexts."""

    def __init__(
        self,
        env: Environment,
        thread: HWThread,
        contexts: List[PamiContext],
        params: BGQParams = DEFAULT_PARAMS,
        name: Optional[str] = None,
    ) -> None:
        if not contexts:
            raise ValueError("a communication thread needs at least one context")
        self.env = env
        self.thread = thread
        self.contexts = contexts
        self.params = params
        self.name = name or f"commthread-n{thread.node.node_id}t{thread.tid}"
        self._stopped = False
        # Native statistics (always maintained; snapshotted into the
        # tracer's commthread.* counters at the end of a traced run).
        self.wakeup_count = 0
        self.items_processed = 0
        self.advance_rounds = 0
        #: Optional repro.trace.Tracer + span track id for comm/idle
        #: span recording (wired by the Converse runtime before the
        #: simulation starts).
        self.tracer = None
        self.track: Optional[int] = None
        self.process = env.process(self._run(), name=self.name)

    def stop(self) -> None:
        self._stopped = True
        # Poke every source so a waiting thread observes the stop flag.
        for ctx in self.contexts:
            ctx.rfifo.wakeup.signal()

    def _wakeup_sources(self):
        out = []
        for ctx in self.contexts:
            out.append(ctx.rfifo.wakeup)
            out.append(ctx.work.wakeup)
        return out

    def _run(self):
        tr = self.tracer
        # Span recording only on comm<->idle transitions: consecutive
        # advance rounds merge into one "comm" span (keeps the tracer
        # off the per-round hot path and the timeline uncluttered).
        if tr is not None:
            tr.begin(self.track, "comm")
        while not self._stopped:
            n = 0
            for ctx in self.contexts:
                n += yield from ctx.advance(self.thread)
            self.items_processed += n
            self.advance_rounds += 1
            if n == 0 and not self._stopped:
                # No work: arm the wakeup unit and execute `wait`.
                if tr is not None:
                    tr.begin(self.track, "idle")
                yield arm_any(self._wakeup_sources())
                self.wakeup_count += 1
                if tr is not None:
                    tr.begin(self.track, "comm")
        if tr is not None:
            tr.end(self.track)
