"""BG/Q Messaging Unit (MU) model (§II-A).

The MU moves data between node memory and the 5D torus.  It exposes
544 injection FIFOs and 272 reception FIFOs so that *many threads can
simultaneously inject and receive messages on different FIFOs* — the
hardware property behind the paper's multi-communication-thread
message-rate acceleration (§III-C/E).

Two transfers are modelled (the hardware's RDMA write, PAMI_Rput, is
not — no runtime path uses it):

* **memory FIFO** — delivered into an MU reception FIFO at the
  destination and processed by software (PAMI dispatch);
* **RDMA read** (``rget``) — a request packet to the remote node whose
  MU streams the data back as RDMA data packets written straight to
  memory, with no remote software involvement.

Each injection FIFO has its own descriptor engine with a fixed
per-packet processing overhead, so the *per-FIFO message rate* is
bounded and aggregate rate scales with the number of FIFOs in use.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional

from ..sim import Environment, Event, Timeout
from .network import MEMFIFO, RDMA_DATA, RGET_REQUEST, Packet, TorusNetwork
from .params import BGQParams, DEFAULT_PARAMS
from .wakeup import WakeupSource

__all__ = ["Descriptor", "InjectionFifo", "ReceptionFifo", "MessagingUnit"]


class Descriptor:
    """One message-level injection request posted to an injection FIFO."""

    __slots__ = (
        "dst",
        "nbytes",
        "kind",
        "rec_fifo",
        "message",
        "injected",
        "delivered",
        "data_ififo",
        "corrupted",
    )

    def __init__(
        self,
        env: Environment,
        dst: int,
        nbytes: int,
        kind: str = MEMFIFO,
        rec_fifo: int = 0,
        message: object = None,
    ) -> None:
        if nbytes < 0:
            raise ValueError("descriptor size must be >= 0")
        self.dst = dst
        self.nbytes = nbytes
        self.kind = kind
        self.rec_fifo = rec_fifo
        self.message = message
        #: Fires when the MU engine has put the last packet on the wire.
        self.injected: Event = env.event()
        #: Fires when the last packet has arrived at the destination
        #: (for rget: when the read data has fully arrived back here).
        self.delivered: Event = env.event()
        #: For rget: which remote injection FIFO streams the data back.
        self.data_ififo: int = 0
        #: Set by the fault injector when a fragment is lost or damaged;
        #: the receive-side reliability gate discards such messages.
        self.corrupted: bool = False

    def _on_last_arrival(self, _event: Event) -> None:
        if not self.delivered.triggered:
            self.delivered.succeed()


class InjectionFifo:
    """One MU injection FIFO and its descriptor-processing engine.

    The engine is callback-driven, with no process: each packet's
    descriptor overhead is one :class:`~repro.sim.Timeout` whose
    callback puts the packet on the wire and starts the next, and an
    idle engine waits on ``_work``, whose callback restarts it.  The
    events and their ``(time, seq)`` keys are those of a generator
    engine that yields the same timeouts in the same order
    (``tests/bgq/test_mu_identity.py`` keeps that engine as the
    reference).
    """

    def __init__(
        self,
        env: Environment,
        mu: "MessagingUnit",
        fifo_id: int,
        params: BGQParams,
    ) -> None:
        self.env = env
        self.mu = mu
        self.fifo_id = fifo_id
        self.params = params
        self._queue: Deque[Descriptor] = deque()
        self.descriptors_processed = 0
        self.packets_injected = 0
        #: Occupancy high-water mark (descriptors queued behind the
        #: engine) — the HPM "injection FIFO depth" counter.
        self.occupancy_hwm = 0
        #: The descriptor in service, its next packet's index, its
        #: packet count and its bytes not yet packetised.
        self._desc: Optional[Descriptor] = None
        self._pkt = 0
        self._npackets = 0
        self._remaining = 0
        # Shared by this FIFO's packet timeouts and work events (nothing
        # else can reach those events to add callbacks).
        self._step_cbs = [self._step]
        self._restart_cbs = [self._next_desc]
        #: Pending while the engine is idle; a post succeeds it.
        self._work = Event(env)
        self._work.callbacks = self._restart_cbs

    def __len__(self) -> int:
        return len(self._queue)

    def post(self, desc: Descriptor) -> None:
        """Post a descriptor (zero software cost here; callers charge it)."""
        self._queue.append(desc)
        depth = len(self._queue)
        if depth > self.occupancy_hwm:
            self.occupancy_hwm = depth
        if not self._work.triggered:
            self._work.succeed()

    def _next_desc(self, _work: Optional[Event] = None) -> None:
        """Start the queue's head descriptor, or go idle (also the
        restart callback of ``_work``)."""
        if not self._queue:
            work = self._work = Event(self.env)
            work.callbacks = self._restart_cbs
            return
        desc = self._desc = self._queue.popleft()
        self.descriptors_processed += 1
        p = self.params
        self._pkt = 0
        self._npackets = max(1, math.ceil(desc.nbytes / p.packet_payload_max))
        self._remaining = desc.nbytes
        Timeout(self.env, p.mu_packet_overhead).callbacks = self._step_cbs

    def _step(self, _overhead: Event) -> None:
        """A packet's descriptor overhead has elapsed: inject it."""
        desc = self._desc
        p = self.params
        remaining = self._remaining
        chunk = min(p.packet_payload_max, remaining) if remaining else 0
        self._remaining = remaining - chunk
        seq = self._pkt
        is_last = seq == self._npackets - 1
        # Only the last packet of a message that reports its delivery
        # gets a completion event.
        awaited = is_last and desc.kind in (MEMFIFO, RDMA_DATA)
        pkt = Packet(
            src=self.mu.node_id,
            dst=desc.dst,
            kind=desc.kind,
            payload_bytes=chunk,
            rec_fifo=desc.rec_fifo,
            message=desc,
            seq=seq,
            is_last=is_last,
        )
        last_arrival = self.mu.network.inject(pkt, awaited)
        self.packets_injected += 1
        if not is_last:
            self._pkt = seq + 1
            Timeout(self.env, p.mu_packet_overhead).callbacks = self._step_cbs
            return
        self._desc = None
        if not desc.injected.triggered:
            desc.injected.succeed()
        if awaited:
            # The last packet is still in flight.
            last_arrival._add_callback(desc._on_last_arrival)
        self._next_desc()


class ReceptionFifo:
    """One MU reception FIFO: arrived memfifo packets await software.

    The FIFO owns a :class:`WakeupSource` so a communication thread can
    sleep on packet arrival, and an optional immediate callback used by
    polling contexts to count pending work.
    """

    def __init__(self, env: Environment, fifo_id: int, params: BGQParams) -> None:
        self.env = env
        self.fifo_id = fifo_id
        self.params = params
        self._packets: Deque[Packet] = deque()
        self.wakeup = WakeupSource(env, name=f"rfifo{fifo_id}", params=params)
        self.packets_received = 0
        #: Occupancy high-water mark (packets awaiting software drain) —
        #: the HPM "reception FIFO depth" counter.
        self.occupancy_hwm = 0

    def __len__(self) -> int:
        return len(self._packets)

    def push(self, packet: Packet) -> None:
        self._packets.append(packet)
        depth = len(self._packets)
        if depth > self.occupancy_hwm:
            self.occupancy_hwm = depth
        self.packets_received += 1
        self.wakeup.signal()

    def pop(self) -> Optional[Packet]:
        if self._packets:
            return self._packets.popleft()
        return None


class MessagingUnit:
    """The messaging unit of one node: FIFO pools + RDMA handling."""

    def __init__(
        self,
        env: Environment,
        node_id: int,
        params: BGQParams = DEFAULT_PARAMS,
        network: Optional[TorusNetwork] = None,
    ) -> None:
        self.env = env
        self.node_id = node_id
        self.params = params
        self.network = network  # wired by the Machine after construction
        self._injection: List[InjectionFifo] = []
        self._reception: List[ReceptionFifo] = []
        #: Dedicated FIFO used to stream rget responses (hardware path).
        self._rdma_ififo: Optional[InjectionFifo] = None
        #: Completion routing for rget responses arriving back here.
        self._pending_rgets: Dict[int, Descriptor] = {}
        self._rget_seq = 0
        #: Packets of any kind that arrived at this node's MU.  Native
        #: statistic (always counted); the Converse runtime snapshots it
        #: into the tracer's ``mu.packets_received`` counter.
        self.packets_received = 0
        #: Optional :class:`~repro.faults.injector.FaultInjector`; when
        #: None the reception-FIFO fault hook is one attribute test.
        self.fault = None

    # -- aggregate statistics ----------------------------------------------
    @property
    def descriptors_processed(self) -> int:
        """Descriptors processed across all injection FIFOs."""
        return sum(f.descriptors_processed for f in self._injection)

    @property
    def packets_injected(self) -> int:
        """Packets put on the wire across all injection FIFOs."""
        return sum(f.packets_injected for f in self._injection)

    # -- FIFO allocation ---------------------------------------------------
    def allocate_injection_fifo(self) -> InjectionFifo:
        if len(self._injection) >= self.params.mu_injection_fifos:
            raise RuntimeError("out of MU injection FIFOs")
        f = InjectionFifo(self.env, self, len(self._injection), self.params)
        self._injection.append(f)
        return f

    def allocate_reception_fifo(self) -> ReceptionFifo:
        if len(self._reception) >= self.params.mu_reception_fifos:
            raise RuntimeError("out of MU reception FIFOs")
        f = ReceptionFifo(self.env, len(self._reception), self.params)
        self._reception.append(f)
        return f

    @property
    def rdma_ififo(self) -> InjectionFifo:
        if self._rdma_ififo is None:
            self._rdma_ififo = self.allocate_injection_fifo()
        return self._rdma_ififo

    # -- send paths -----------------------------------------------------------
    def make_descriptor(
        self,
        dst: int,
        nbytes: int,
        kind: str = MEMFIFO,
        rec_fifo: int = 0,
        message: object = None,
    ) -> Descriptor:
        return Descriptor(self.env, dst, nbytes, kind, rec_fifo, message)

    def post_rget(self, ififo: InjectionFifo, dst: int, nbytes: int) -> Descriptor:
        """One-sided RDMA read of ``nbytes`` from node ``dst``.

        Returns a descriptor whose ``delivered`` event fires when the
        data has fully arrived at this node.  The remote side is handled
        entirely by the remote MU (no software there), as in hardware.
        """
        self._rget_seq += 1
        token = (self.node_id << 32) | self._rget_seq
        desc = self.make_descriptor(dst, nbytes, kind=RGET_REQUEST, message=token)
        self._pending_rgets[token] = desc
        # The request itself is a single small packet.
        req = self.make_descriptor(dst, 32, kind=RGET_REQUEST, message=("rget", token, nbytes))
        desc.injected = req.injected
        ififo.post(req)
        return desc

    # -- receive path (wired as network delivery target) -------------------
    def receive_packet(self, packet: Packet) -> None:
        self.packets_received += 1
        if packet.kind == MEMFIFO:
            fifo_id = packet.rec_fifo
            if not 0 <= fifo_id < len(self._reception):
                raise RuntimeError(
                    f"node {self.node_id}: packet for unallocated reception "
                    f"FIFO {fifo_id}"
                )
            fault = self.fault
            if fault is not None:
                action = fault.on_reception(self.node_id, fifo_id, packet)
                if action == "drop":
                    return
                if action == "dup":
                    self._reception[fifo_id].push(packet)
            self._reception[fifo_id].push(packet)
        elif packet.kind == RGET_REQUEST:
            # Remote-read request: stream the data back, no software.
            # (Packets carry their descriptor; its message holds the
            # request tuple.)
            _, token, nbytes = packet.message.message
            resp = self.make_descriptor(
                packet.src, nbytes, kind=RDMA_DATA, message=("rget-data", token)
            )
            self.rdma_ififo.post(resp)
        elif packet.kind == RDMA_DATA:
            if packet.is_last:
                msg = packet.message
                payload = getattr(msg, "message", None) or msg
                if isinstance(payload, tuple) and payload[0] == "rget-data":
                    token = payload[1]
                    pending = self._pending_rgets.pop(token, None)
                    if pending is not None and not pending.delivered.triggered:
                        pending.delivered.succeed()
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown packet kind {packet.kind!r}")
