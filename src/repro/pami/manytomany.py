"""PAMI many-to-many: optimized bursts of short messages (§III-E).

Neighbourhood collectives like the transposes inside a pencil 3D FFT
send dozens of small messages per rank per phase.  Sending each through
the full per-message software stack (envelope, scheduler, dispatch) is
what limits fine-grained strong scaling; the ManyToMany interface is
*persistent* — the send list (destinations, sizes, offsets) is
registered once — and ``start()`` hands the whole burst to the
communication threads, which issue the sends back-to-back at a far
lower per-message cost and in parallel across several injection FIFOs.

Completion has two sides, as in PAMI: the *send-done* callback when all
local sends are injected, and the *receive-done* callback when all
expected messages of the handle's tag have arrived.

Delivery semantics are per handle (:mod:`repro.faults.qos`): a
``QOS_BEST_EFFORT`` / ``QOS_BEST_EFFORT_FRESH`` handle posts its burst
unstamped — no ACKs, no retransmit state — and its receive-done side
*tolerates shortfall*: when ``deadline_cycles`` is set, ``start()``
arms a watcher that force-fires ``recv_done`` at the deadline if the
expected count has not been reached, accumulating the missing count in
``handle.shortfall``.  FRESH bursts additionally key each send slot as
its own supersede flow, so a re-started iteration's value replaces a
still-undelivered older one instead of arriving after it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bgq.node import HWThread
from ..bgq.params import BGQParams, DEFAULT_PARAMS
from ..faults.qos import QOS_BEST_EFFORT_FRESH, QOS_RELIABLE
from ..sim import Environment, Event
from .commthread import CommThread
from .context import AMPayload, Endpoint, PamiContext

__all__ = ["ManyToManyHandle", "ManyToManyRegistry", "M2M_DISPATCH_ID"]

#: Dispatch id reserved for many-to-many traffic on every context.
M2M_DISPATCH_ID = 0x7F


class ManyToManyHandle:
    """A persistent many-to-many communication pattern on one process.

    ``sends`` — [(dest_endpoint, nbytes, user_data)] or
    [(dest_endpoint, nbytes, user_data, recv_tag)] registered once; the
    optional ``recv_tag`` addresses a *different* handle at the
    destination (defaults to this handle's tag — symmetric patterns).
    ``expected_recvs`` — how many messages addressed to this handle's
    tag will arrive per iteration.

    ``qos`` — delivery semantics for the burst (default reliable).
    ``deadline_cycles`` — with a best-effort qos, how long after
    ``start()`` the receive side waits before declaring the iteration
    complete-with-shortfall (None = wait forever, reliable-style).
    """

    def __init__(
        self,
        env: Environment,
        tag,
        sends: Sequence[Tuple],
        expected_recvs: int,
        qos: int = QOS_RELIABLE,
        deadline_cycles: Optional[float] = None,
    ) -> None:
        self.env = env
        self.tag = tag
        self.sends = []
        for entry in sends:
            if len(entry) == 3:
                dest, nbytes, data = entry
                self.sends.append((dest, nbytes, data, tag))
            elif len(entry) == 4:
                self.sends.append(tuple(entry))
            else:
                raise ValueError(f"bad many-to-many send entry {entry!r}")
        self.expected_recvs = int(expected_recvs)
        self.qos = qos
        self.deadline_cycles = deadline_cycles
        self._recv_count = 0
        self.send_done: Event = env.event()
        self.recv_done: Event = env.event()
        self.starts = 0
        #: Cumulative expected-but-missing receives across iterations
        #: whose deadline fired before the count was reached.
        self.shortfall = 0
        #: Iterations that completed via the deadline, not the count.
        self.deadline_completions = 0
        #: Optional sink invoked per arrived message: fn(src_endpoint, data).
        self.on_message = None

    def reset(self) -> None:
        """Re-arm for the next iteration (persistent handles are reused)."""
        self._recv_count = 0
        self.send_done = self.env.event()
        self.recv_done = self.env.event()

    def _note_arrival(self, payload: AMPayload) -> None:
        self._recv_count += 1
        if self.on_message is not None:
            tag, data = payload.data
            self.on_message(payload.src_endpoint, data)
        if self._recv_count == self.expected_recvs and not self.recv_done.triggered:
            self.recv_done.succeed()

    @property
    def complete(self) -> Event:
        """Fires when both sides are done."""
        return self.env.all_of([self.send_done, self.recv_done])


class ManyToManyRegistry:
    """Per-process many-to-many engine.

    Registers the shared dispatch on the process's contexts and fans
    ``start()`` out across the process's communication threads (or runs
    the burst inline on the calling thread when there are none).
    """

    def __init__(
        self,
        env: Environment,
        contexts: List[PamiContext],
        comm_threads: Optional[List[CommThread]] = None,
        params: BGQParams = DEFAULT_PARAMS,
    ) -> None:
        self.env = env
        self.params = params
        self.contexts = contexts
        self.comm_threads = comm_threads or []
        self.handles: Dict[int, ManyToManyHandle] = {}
        for ctx in contexts:
            ctx.register_dispatch(M2M_DISPATCH_ID, self._dispatch)

    # -- registration ------------------------------------------------------
    def register(
        self,
        tag,
        sends: Sequence[Tuple],
        expected_recvs: int,
        qos: int = QOS_RELIABLE,
        deadline_cycles: Optional[float] = None,
    ) -> ManyToManyHandle:
        if tag in self.handles:
            raise ValueError(f"many-to-many tag {tag} already registered")
        h = ManyToManyHandle(
            self.env, tag, sends, expected_recvs,
            qos=qos, deadline_cycles=deadline_cycles,
        )
        self.handles[tag] = h
        return h

    def _dispatch(self, ctx: PamiContext, thread: HWThread, payload: AMPayload):
        tag, _data = payload.data
        handle = self.handles.get(tag)
        if handle is None:
            raise RuntimeError(f"m2m message for unregistered tag {tag}")
        # Amortized per-message receive cost.
        yield from thread.compute(self.params.m2m_per_msg_instr)
        handle._note_arrival(payload)

    def _arm_shortfall_watcher(self, handle: ManyToManyHandle) -> None:
        """Force recv_done at the deadline, counting what never arrived.

        Captures this iteration's ``recv_done`` locally: a reset() that
        re-arms the handle mints a fresh event, so a late deadline for
        a normally-completed iteration is a no-op.
        """
        env = self.env
        recv_done = handle.recv_done

        def force(_ev):
            if not recv_done.triggered:
                handle.shortfall += handle.expected_recvs - handle._recv_count
                handle.deadline_completions += 1
                recv_done.succeed()

        def expire(_ev):
            # Decide one zero-delay hop after the deadline pops: a receive
            # completing at the deadline instant, ahead of the hop, counts.
            if not recv_done.triggered:
                env.timeout(0.0).callbacks = [force]

        env.timeout(handle.deadline_cycles).callbacks = [expire]

    # -- start ---------------------------------------------------------------
    def start(self, thread: HWThread, handle: ManyToManyHandle):
        """CmiDirectManytomany_start: trigger the registered burst.

        Generator-style.  Returns immediately after the burst has been
        handed off (posted to communication threads) or, without comm
        threads, after the calling thread has injected all messages.
        """
        p = self.params
        handle.starts += 1
        yield from thread.compute(p.m2m_start_instr)
        if handle.expected_recvs == 0 and not handle.recv_done.triggered:
            handle.recv_done.succeed()
        elif handle.qos != QOS_RELIABLE and handle.deadline_cycles is not None:
            self._arm_shortfall_watcher(handle)
        if not handle.sends:
            if not handle.send_done.triggered:
                handle.send_done.succeed()
            return

        nworkers = max(1, len(self.comm_threads))
        chunks: List[List[Tuple[int, Tuple[Endpoint, int, Any, Any]]]] = [
            [] for _ in range(nworkers)
        ]
        for i, send in enumerate(handle.sends):
            # The slot index rides along as the FRESH flow key suffix:
            # each registered send slot is its own supersede flow.
            chunks[i % nworkers].append((i, send))
        pending = {"count": sum(1 for c in chunks if c)}
        qos = handle.qos
        fresh = qos == QOS_BEST_EFFORT_FRESH

        def make_work(chunk):
            def work(ctx: PamiContext, wthread: HWThread):
                for slot, (dest, nbytes, data, recv_tag) in chunk:
                    yield from wthread.compute(p.m2m_per_msg_instr)
                    ctx._post(
                        dest, M2M_DISPATCH_ID, nbytes, (recv_tag, data), qos,
                        (recv_tag, slot) if fresh else None,
                    )
                pending["count"] -= 1
                if pending["count"] == 0 and not handle.send_done.triggered:
                    handle.send_done.succeed()

            return work

        if self.comm_threads:
            for ct, chunk in zip(self.comm_threads, chunks):
                if chunk:
                    yield from ct.contexts[0].post_work(thread, make_work(chunk))
        else:
            ctx = self.contexts[0]
            work = make_work([s for c in chunks for s in c])
            pending["count"] = 1
            yield from work(ctx, thread)
