"""Link-level torus network model (§II-A).

Each torus link sends and receives simultaneously at 2 GB/s raw; packet
header overhead (32 of every 544 bytes) caps achievable payload
throughput at ~1.8 GB/s [paper].  Routing is deterministic
dimension-ordered (see :class:`~repro.bgq.torus.Torus`).

Packets use *cut-through* switching: a packet occupies each link on its
route for its serialization time, with reservations pipelined one hop
latency apart.  We model each directed link as a busy-until timeline
(no per-byte events), which captures both serialization and link
contention at a cost of O(hops) per packet — cheap enough that the
sharded engine (docs/SCALING.md) simulates the paper's 128-512 node
partitions for real, with :mod:`repro.perfmodel` cross-validated
against it at that scale.

Packets fly without processes: a flight is one :class:`~repro.sim.Timeout`
due at the arrival, whose callback delivers the packet, then succeeds
the sender's ``done``.  A routed packet costs three events (the shared
reservation flush, flight, ``done``), a loopback packet two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..sim import Environment, Event, Timeout
from .params import BGQParams, DEFAULT_PARAMS
from .torus import Torus

__all__ = ["Packet", "TorusNetwork", "MEMFIFO", "RGET_REQUEST", "RDMA_DATA"]

# Packet kinds
MEMFIFO = "memfifo"  # delivered into a reception FIFO, software-processed
RGET_REQUEST = "rget-request"  # remote-read request, handled by remote MU
RDMA_DATA = "rdma-data"  # RDMA payload, written directly to memory


@dataclass
class Packet:
    """One torus packet (up to 512 B payload + 32 B header)."""

    src: int
    dst: int
    kind: str
    payload_bytes: int
    #: Reception FIFO id at the destination (memfifo packets).
    rec_fifo: int = 0
    #: Opaque message context carried through the network.
    message: object = None
    #: Index of this packet within its message, and whether it is last.
    seq: int = 0
    is_last: bool = True


class TorusNetwork:
    """The torus interconnect: routes packets, models link contention.

    ``deliver`` is the callback invoked (at the arrival time) with each
    packet at its destination; the machine wires it to the destination
    node's messaging unit.
    """

    def __init__(
        self,
        env: Environment,
        torus: Torus,
        params: BGQParams = DEFAULT_PARAMS,
        deliver: Optional[Callable[[Packet], None]] = None,
        routing: str = "deterministic",
    ) -> None:
        if routing not in ("deterministic", "adaptive"):
            raise ValueError(f"unknown routing mode {routing!r}")
        self.env = env
        self.torus = torus
        self.params = params
        self.deliver = deliver
        #: "deterministic" = fixed dimension order (BG/Q default);
        #: "adaptive" = per-packet dimension-order permutation (a model
        #: of BG/Q's dynamic routing — spreads all-to-all traffic over
        #: more links).  The permutation is a deterministic hash of the
        #: packet count so simulations stay reproducible.
        self.routing = routing
        #: busy-until time per directed link
        self._link_free: Dict[Tuple[int, int], float] = {}
        #: Injects of the current timestamp, awaiting the canonical-order
        #: reservation flush (see :meth:`_flush_reservations`).  The
        #: first request of a timestamp is held in the ``_f_*`` scalar
        #: slots (no tuple allocation — almost every flush is a
        #: singleton, and the extra garbage would trigger gen-0 GC
        #: passes over the whole simulation graph); only simultaneous
        #: followers spill into ``_deferred``.
        self._deferred: list = []
        self._flush_armed = False
        self._f_node = 0
        self._f_n = 0
        self._f_packet: Optional[Packet] = None
        self._f_done: Optional[Event] = None
        self._f_route = None
        self._f_action = None
        #: Per-source-node inject counter — the tie-break that orders
        #: simultaneous reservations.
        self._node_inject_seq: Dict[int, int] = {}
        self.packets_sent = 0
        self.bytes_sent = 0
        #: Optional :class:`~repro.faults.injector.FaultInjector`; when
        #: None (the default) the fault hook below is a single attribute
        #: test and the trajectory is identical to a fault-free build.
        self.fault = None

    def _dim_order(self) -> Optional[list]:
        if self.routing == "deterministic":
            return None
        ndim = self.torus.ndim
        order = list(range(ndim))
        # Cheap deterministic shuffle keyed by the packet counter.
        h = self.packets_sent * 2654435761 % (2**32)
        for i in range(ndim - 1, 0, -1):
            j = h % (i + 1)
            order[i], order[j] = order[j], order[i]
            h //= i + 1
        return order

    def _serialization(self, packet: Packet) -> float:
        """Cycles to stream a packet across one link."""
        p = self.params
        wire = packet.payload_bytes + p.packet_header_bytes
        return wire / (p.link_bandwidth / 1.6e9)  # raw link rate, cycles

    def inject(self, packet: Packet) -> Event:
        """Send a packet; the returned event fires on arrival at dst.

        Must be called at the moment the MU puts the packet on the wire.
        """
        env = self.env
        done = env.event()
        self.packets_sent += 1
        self.bytes_sent += packet.payload_bytes
        if packet.src == packet.dst:
            # MU loopback (sends between processes on one node, or to
            # self): no torus links, just the MU ingress/egress path.
            Timeout(env, self.params.nic_latency, (packet, done)).callbacks = [self._arrive]
            return done
        return self._inject_routed(packet, done)

    def reserve_route(self, route, ser: float, t_inject: float) -> float:
        """Run the cut-through reservation for one packet; returns its
        arrival time and updates the link busy-until timeline.

        The head advances one hop_latency per link; each link is busy
        for the serialization time starting when the head reaches it (or
        when the link frees, if later — upstream then stalls, which we
        conservatively roll into the arrival time).  Extracted so the
        sharded engine's reservation fabric (repro.bgq.shardnet) runs
        the *identical* arithmetic, in the identical float-op order, at
        the window barrier.
        """
        p = self.params
        t_head = t_inject + p.nic_latency
        link_free = self._link_free
        for link in route:
            start = max(t_head, link_free.get(link, 0.0))
            link_free[link] = start + ser
            t_head = start + p.hop_latency
        return t_head + ser

    def _inject_routed(self, packet: Packet, done: Event) -> Event:
        """Route + reserve + deliver one non-loopback packet.

        Reservations are *not* made at the call: all injects of the
        current timestamp are buffered and flushed once every event at
        this simulated time has executed, sorted by
        ``(src_node, per-node inject counter)``.  Simultaneous injects
        from different nodes therefore contend for links in a canonical
        order that depends only on the traffic, not on the event heap's
        interleaving — which is what lets the sharded engine
        (repro.bgq.shardnet) replay the identical reservation sequence
        from per-shard state alone.  Routing and fault decisions stay at
        the call (they consume ordered counters/RNG draws).

        Overridden by the sharded network, which buffers the request
        for barrier-time reservation instead.
        """
        env = self.env
        route = self.torus.route(packet.src, packet.dst, dim_order=self._dim_order())
        fault = self.fault
        action = fault.on_route(packet, route) if fault is not None else None
        node = packet.src
        n = self._node_inject_seq.get(node, 0)
        self._node_inject_seq[node] = n + 1
        if not self._flush_armed:
            self._flush_armed = True
            self._f_node = node
            self._f_n = n
            self._f_packet = packet
            self._f_done = done
            self._f_route = route
            self._f_action = action
            # A zero timeout runs after every event already scheduled at
            # this timestamp — i.e. after all simultaneous injects.
            to = Timeout(env, 0.0)
            to.callbacks = [self._flush_reservations]
        else:
            self._deferred.append((node, n, packet, done, route, action))
        return done

    def _flush_reservations(self, _event: Event) -> None:
        """Reserve this timestamp's deferred injects in canonical order."""
        self._flush_armed = False
        packet, done = self._f_packet, self._f_done
        route, action = self._f_route, self._f_action
        self._f_packet = self._f_done = self._f_route = self._f_action = None
        if not self._deferred:
            self._launch(packet, done, route, action)
            return
        batch, self._deferred = self._deferred, []
        batch.append((self._f_node, self._f_n, packet, done, route, action))
        batch.sort(key=lambda r: (r[0], r[1]))
        for _node, _n, packet, done, route, action in batch:
            self._launch(packet, done, route, action)

    def _launch(self, packet: Packet, done: Event, route, action) -> None:
        """Reserve the route and start the packet's flight."""
        env = self.env
        ser = self._serialization(packet)
        arrival = self.reserve_route(route, ser, env.now)

        if action is not None:
            if action.drop:
                # Lost in flight: links were still occupied up to the
                # loss point (we conservatively charge the full route),
                # but the packet never arrives and ``done`` never fires.
                return
            arrival += action.extra_delay
            if action.dup_gap is not None:
                dup = Timeout(env, arrival + action.dup_gap - env.now, (packet, None))
                dup.callbacks = [self._arrive]  # delivery only: no sender waits
        Timeout(env, arrival - env.now, (packet, done)).callbacks = [self._arrive]

    def _arrive(self, flight: Timeout) -> None:
        """A flight lands: deliver the packet, then complete its sender."""
        packet, done = flight._value
        if self.deliver is not None:
            self.deliver(packet)
        if done is not None:
            done.succeed(packet)

    def link_utilization(self) -> Dict[Tuple[int, int], float]:
        """Busy-until horizon per link (diagnostics)."""
        return dict(self._link_free)
