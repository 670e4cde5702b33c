"""PAMI-like active-message contexts (§II-B).

PAMI exposes *context* objects for fine-grained communication
parallelism: multiple threads can concurrently call different contexts
without acquiring mutexes.  A context bundles

* an MU injection FIFO (sends posted by this context),
* an MU reception FIFO (packets addressed to this context),
* a dispatch table (active-message callbacks), and
* a lockless *work queue* where other threads post work closures —
  the mechanism communication threads consume (§III-C).

``PAMI_Context_advance`` is modelled by :meth:`PamiContext.advance`:
drain newly arrived packets (invoking dispatch callbacks on message
completion) and execute posted work.

Addressing: a remote endpoint is ``(node_id, context_offset)`` — on
real BG/Q an endpoint names a (task, context) pair; our context offset
selects the reception FIFO on the destination node.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..bgq.mu import Descriptor
from ..bgq.network import MEMFIFO
from ..bgq.node import HWThread, Node
from ..bgq.params import BGQParams, DEFAULT_PARAMS
from ..faults.qos import (
    QOS_BEST_EFFORT_FRESH as _QOS_FRESH,
    QOS_RELIABLE as _QOS_RELIABLE,
)
from ..faults.recovery import RELIABLE_ACK_DISPATCH as _RELIABLE_ACK_DISPATCH
from ..queues import L2AtomicQueue
from ..sim import Environment

__all__ = ["PamiContext", "PamiClient", "Endpoint", "AMPayload"]

#: A remote endpoint: (node_id, reception-FIFO id).
Endpoint = Tuple[int, int]

#: Per-packet software processing cost while draining a reception FIFO.
_PER_PACKET_INSTR = 70.0


class AMPayload:
    """What travels inside a descriptor for an active-message send."""

    __slots__ = ("dispatch_id", "data", "nbytes", "src_endpoint", "seq",
                 "fresh_key", "fresh_gen")

    def __init__(self, dispatch_id: int, data: Any, nbytes: int, src_endpoint: Endpoint):
        self.dispatch_id = dispatch_id
        self.data = data
        self.nbytes = nbytes
        self.src_endpoint = src_endpoint
        #: Per-(source context, destination endpoint) sequence number,
        #: stamped by the reliability layer; None on unstamped sends.
        self.seq: Optional[int] = None
        #: QOS_BEST_EFFORT_FRESH flow key + generation (stamp_fresh);
        #: both None on reliable and plain best-effort sends.
        self.fresh_key = None
        self.fresh_gen: Optional[int] = None


class PamiContext:
    """One PAMI context on one node."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        params: BGQParams = DEFAULT_PARAMS,
    ) -> None:
        self.env = env
        self.node = node
        self.params = params
        self.ififo = node.mu.allocate_injection_fifo()
        self.rfifo = node.mu.allocate_reception_fifo()
        self.dispatch: Dict[int, Callable] = {}
        self.work = L2AtomicQueue(
            env, node.l2, size=512, name=f"ctx{node.node_id}.{self.rfifo.fifo_id}-work",
            params=params,
        )
        #: Hardware-completion continuations (e.g. "this Rget finished"):
        #: appended with no software cost and drained by advance().
        self.completions: list = []
        # Native statistics (always maintained; the Converse runtime
        # snapshots them into the tracer's pami.* counters at the end
        # of a traced run).
        self.messages_sent = 0
        self.messages_received = 0
        self.advances = 0
        self.bytes_sent = 0
        self.packets_drained = 0
        self.work_posted = 0
        self.completions_posted = 0
        self.rgets = 0
        self.rputs = 0
        #: Optional :class:`~repro.faults.recovery.ReliableTransport`.
        #: When None (the default) the send-stamp and receive-gate hooks
        #: are single ``is None`` tests — trajectory neutral.
        self.reliability = None

    def enable_reliability(self, policy=None, tracer=None):
        """Attach a :class:`~repro.faults.recovery.ReliableTransport`."""
        from ..faults.recovery import ReliableTransport, RetryPolicy

        self.reliability = ReliableTransport(
            self, policy if policy is not None else RetryPolicy(), tracer=tracer
        )
        return self.reliability

    # -- identity ------------------------------------------------------------
    @property
    def endpoint(self) -> Endpoint:
        return (self.node.node_id, self.rfifo.fifo_id)

    # -- dispatch ------------------------------------------------------------
    def register_dispatch(self, dispatch_id: int, fn: Callable) -> None:
        """Register an active-message callback.

        ``fn(context, thread, payload)`` may be a plain function or a
        generator (charged work); it runs on the advancing thread.
        """
        if dispatch_id in self.dispatch:
            raise ValueError(f"dispatch id {dispatch_id} already registered")
        self.dispatch[dispatch_id] = fn

    # -- sends -----------------------------------------------------------------
    def send_immediate(
        self,
        thread: HWThread,
        dest: Endpoint,
        dispatch_id: int,
        nbytes: int,
        data: Any = None,
        qos: int = _QOS_RELIABLE,
        fresh_key: Any = None,
    ):
        """PAMI_Send_immediate: copy payload+metadata, one MU descriptor.

        Short messages only (must fit one packet).  Generator-style;
        returns the :class:`Descriptor`.
        """
        p = self.params
        if nbytes > p.packet_payload_max:
            raise ValueError(
                f"send_immediate limited to {p.packet_payload_max} B, got {nbytes}"
            )
        yield from thread.compute(p.pami_send_imm_instr)
        desc = self._post(dest, dispatch_id, nbytes, data, qos, fresh_key)
        return desc

    def send(
        self,
        thread: HWThread,
        dest: Endpoint,
        dispatch_id: int,
        nbytes: int,
        data: Any = None,
        qos: int = _QOS_RELIABLE,
        fresh_key: Any = None,
    ):
        """PAMI_Send: two MU descriptors (metadata + payload)."""
        p = self.params
        yield from thread.compute(p.pami_send_instr)
        desc = self._post(dest, dispatch_id, nbytes, data, qos, fresh_key)
        return desc

    def _post(
        self,
        dest: Endpoint,
        dispatch_id: int,
        nbytes: int,
        data: Any,
        qos: int = _QOS_RELIABLE,
        fresh_key: Any = None,
    ) -> Descriptor:
        dst_node, dst_fifo = dest
        payload = AMPayload(dispatch_id, data, nbytes, self.endpoint)
        rel = self.reliability
        if rel is not None and dispatch_id != _RELIABLE_ACK_DISPATCH:
            # ACKs travel unstamped (no ACK-of-ACK).  Reliable sends are
            # sequence-numbered and armed for retransmit; FRESH sends
            # carry a supersede generation; plain best-effort sends skip
            # the transport entirely (the enum-default guard keeps the
            # reliable trajectory identical to pre-QoS builds).
            if qos == _QOS_RELIABLE:
                rel.stamp(payload, dest)
            elif qos == _QOS_FRESH:
                rel.stamp_fresh(
                    payload, dest,
                    fresh_key if fresh_key is not None else dispatch_id,
                )
        desc = self.node.mu.make_descriptor(
            dst=dst_node,
            nbytes=max(nbytes, 1),
            kind=MEMFIFO,
            rec_fifo=dst_fifo,
            message=payload,
        )
        self.ififo.post(desc)
        self.messages_sent += 1
        self.bytes_sent += nbytes
        return desc

    def _repost(self, dest: Endpoint, payload) -> Descriptor:
        """Retransmit a stamped payload on a fresh descriptor.

        Transport-internal (called by the reliability timer): keeps the
        original sequence number and does not recount ``messages_sent``.
        """
        dst_node, dst_fifo = dest
        desc = self.node.mu.make_descriptor(
            dst=dst_node,
            nbytes=max(payload.nbytes, 1),
            kind=MEMFIFO,
            rec_fifo=dst_fifo,
            message=payload,
        )
        self.ififo.post(desc)
        return desc

    def rget(self, thread: HWThread, src_node: int, nbytes: int):
        """PAMI_Rget: one-sided RDMA read from ``src_node``.

        Returns a descriptor whose ``delivered`` event fires when data
        has arrived locally.
        """
        yield from thread.compute(self.params.pami_send_imm_instr)
        self.rgets += 1
        desc = self.node.mu.post_rget(self.ififo, dst=src_node, nbytes=nbytes)
        return desc

    def rput(self, thread: HWThread, dst_node: int, nbytes: int, data: Any = None):
        """PAMI_Rput: one-sided RDMA write to ``dst_node``.

        The MU streams RDMA-write packets straight into remote memory —
        no dispatch, no remote software.  Returns a descriptor whose
        ``delivered`` event fires when the last packet has landed.
        """
        from ..bgq.network import RDMA_DATA

        yield from thread.compute(self.params.pami_send_imm_instr)
        self.rputs += 1
        desc = self.node.mu.make_descriptor(
            dst=dst_node, nbytes=nbytes, kind=RDMA_DATA, message=("rput", data)
        )
        self.ififo.post(desc)
        return desc

    # -- work posting (other threads -> this context) ---------------------------
    def post_work(self, thread: HWThread, work: Callable):
        """Post a work closure; it runs at the next advance.

        ``work(context, thread)`` may be a generator (charged work).
        Generator-style call.
        """
        yield from thread.compute(self.params.commthread_post_instr)
        self.work_posted += 1
        yield from self.work.enqueue(thread, work)

    def post_completion(self, fn: Callable) -> None:
        """Register a continuation from a *hardware* completion event.

        Unlike :meth:`post_work` this has no software cost (the MU, not
        a thread, produced the event); the closure runs — and is charged
        — on whichever thread advances this context next.
        """
        self.completions.append(fn)
        self.completions_posted += 1
        # Wake any thread sleeping on this context.
        self.rfifo.wakeup.signal()

    # -- progress -----------------------------------------------------------
    def advance(self, thread: HWThread):
        """PAMI_Context_advance: returns the number of items processed."""
        p = self.params
        self.advances += 1
        processed = 0
        while self.completions:
            fn = self.completions.pop(0)
            processed += 1
            result = fn(self, thread)
            if result is not None and hasattr(result, "__next__"):
                yield from result
        while True:
            pkt = self.rfifo.pop()
            if pkt is None:
                break
            yield from thread.compute(_PER_PACKET_INSTR)
            processed += 1
            self.packets_drained += 1
            if pkt.is_last:
                desc: Descriptor = pkt.message
                payload: AMPayload = desc.message
                rel = self.reliability
                if rel is not None:
                    ok = yield from rel.on_receive(thread, payload, desc)
                    if not ok:
                        continue
                yield from thread.compute(p.pami_dispatch_instr)
                self.messages_received += 1
                fn = self.dispatch.get(payload.dispatch_id)
                if fn is None:
                    raise RuntimeError(
                        f"no dispatch registered for id {payload.dispatch_id} "
                        f"on node {self.node.node_id}"
                    )
                result = fn(self, thread, payload)
                if result is not None and hasattr(result, "__next__"):
                    yield from result
        # has_ready() skips the dequeue generator when the lockless work
        # queue provably has nothing (an empty L2 dequeue simulates zero
        # events — trajectory neutral, see repro.queues).
        work_q = self.work
        while work_q.has_ready():
            work = yield from work_q.dequeue(thread)
            if work is None:
                break
            processed += 1
            result = work(self, thread)
            if result is not None and hasattr(result, "__next__"):
                yield from result
        if processed == 0:
            yield from thread.compute(p.context_advance_instr)
        return processed


class PamiClient:
    """A PAMI client: the set of contexts owned by one process."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        params: BGQParams = DEFAULT_PARAMS,
    ) -> None:
        self.env = env
        self.node = node
        self.params = params
        self.contexts: list[PamiContext] = []

    def create_context(self) -> PamiContext:
        ctx = PamiContext(self.env, self.node, self.params)
        self.contexts.append(ctx)
        return ctx
