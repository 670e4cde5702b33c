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
against it at that scale.  The timeline and its arithmetic are one
:class:`LinkLedger`; the serial network and the sharded engine's
reservation fabric each reserve through one, in the same canonical
``(inject time, src node, per-node counter)`` order.

Packets fly without processes: a flight is one :class:`~repro.sim.Timeout`
due at the arrival, whose callback delivers the packet, then succeeds
the sender's ``done`` — made only for a sender that waits on it
(``wait``; the MU waits on a message's last packet alone).  A routed
packet costs two events (the shared reservation flush, flight) plus one
for an awaited ``done``; a loopback packet one, plus one.  A *quiet*
packet (no ``Packet``; see :class:`~repro.bgq.mu.InjectionFifo`) reserves
its links and costs no event of its own.  Flights and flushes share two
per-network callback lists, so a timeout allocates no list of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..sim import Environment, Event, Timeout
from .params import BGQParams, DEFAULT_PARAMS
from .torus import Torus

__all__ = ["Packet", "LinkLedger", "TorusNetwork", "MEMFIFO", "RGET_REQUEST", "RDMA_DATA"]

# Packet kinds
MEMFIFO = "memfifo"  # delivered into a reception FIFO, software-processed
RGET_REQUEST = "rget-request"  # remote-read request, handled by remote MU
RDMA_DATA = "rdma-data"  # RDMA payload, written directly to memory


@dataclass(slots=True)
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


class LinkLedger:
    """The torus's link timeline: busy-until per directed link.

    :meth:`reserve` is the cut-through arithmetic, the one place it
    exists: the serial network's flush and the sharded engine's
    reservation fabric (repro.bgq.shardnet) both reserve through a
    ledger, in the same canonical order, so their arrival times agree
    bit for bit.
    """

    def __init__(self, params: BGQParams = DEFAULT_PARAMS) -> None:
        self.params = params
        #: busy-until time per directed link
        self.link_free: Dict[Tuple[int, int], float] = {}
        #: Serialization cycles by payload size.
        self._ser: Dict[int, float] = {}

    def reserve(self, route, nbytes: int, t_inject: float) -> float:
        """Reserve ``route`` for one packet of ``nbytes`` payload put on
        the wire at ``t_inject``; returns its arrival time.

        The head advances one hop_latency per link; each link is busy
        for the serialization time starting when the head reaches it (or
        when the link frees, if later: upstream then stalls, which we
        conservatively roll into the arrival time).
        """
        p = self.params
        ser = self._ser.get(nbytes)
        if ser is None:
            # Cycles to stream the packet across one link at the raw rate.
            ser = self._ser[nbytes] = (
                (nbytes + p.packet_header_bytes) / (p.link_bandwidth / 1.6e9))
        t_head = t_inject + p.nic_latency
        hop = p.hop_latency
        link_free = self.link_free
        for link in route:
            start = max(t_head, link_free.get(link, 0.0))
            link_free[link] = start + ser
            t_head = start + hop
        return t_head + ser


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
        #: The link timeline this network reserves through; None on a
        #: shard's network, whose requests the reservation fabric reserves.
        self.ledger: Optional[LinkLedger] = LinkLedger(params)
        #: This timestamp's routed injects, awaiting the canonical-order
        #: reservation (see :meth:`inject`).
        self._pending: list = []
        #: Per-source-node inject counter: the tie-break that orders
        #: simultaneous reservations.
        self._node_inject_seq: Dict[int, int] = {}
        self.packets_sent = 0
        self.bytes_sent = 0
        #: Optional :class:`~repro.faults.injector.FaultInjector`; when
        #: None (the default) the fault hook below is a single attribute
        #: test and the trajectory is identical to a fault-free build.
        self.fault = None
        # Shared by every flight and every reservation flush of this
        # network (nothing else can reach those timeouts to add
        # callbacks), so a timeout costs no list of its own.
        self._arrive_cbs = [self._arrive]
        self._flush_cbs = [self._flush_reservations]

    def _dim_order(self) -> list:
        """The adaptive router's dimension order for the next packet."""
        ndim = self.torus.ndim
        order = list(range(ndim))
        # Cheap deterministic shuffle keyed by the packet counter.
        h = self.packets_sent * 2654435761 % (2**32)
        for i in range(ndim - 1, 0, -1):
            j = h % (i + 1)
            order[i], order[j] = order[j], order[i]
            h //= i + 1
        return order

    def inject(self, src: int, dst: int, nbytes: int, packet: Optional[Packet] = None,
               wait: bool = False) -> Optional[Event]:
        """Send ``nbytes`` of payload from ``src`` to ``dst``, landing as
        ``packet`` (None: a quiet packet, counted and reserved, nothing
        more).  With ``wait``, returns an event that fires on arrival at
        dst; without, returns None and the arrival completes nothing (no
        event is made, scheduled or popped for it).

        Must be called at the moment the MU puts the packet on the wire.
        A routed packet's links are *not* reserved at the call: it
        becomes one request ``(t, src node, per-node inject counter,
        route, nbytes, dst, packet, done, fault action)`` in
        ``_pending``, reserved once every event at this simulated time
        has executed, sorted by its unique ``(t, src node, counter)``
        head.  Simultaneous injects from different nodes therefore
        contend for links in a canonical order that depends only on the
        traffic, not on the event heap's interleaving, which is what
        lets the sharded engine's
        :class:`~repro.bgq.shardnet.ReservationFabric` replay the
        identical reservation sequence from per-shard requests.  A
        network without a ledger (a shard's) leaves its requests for
        the fabric.  Routing and fault decisions stay at the call (they
        consume ordered counters/RNG draws); a quiet packet faces none.
        """
        env = self.env
        done = Event(env) if wait else None
        self.packets_sent += 1
        self.bytes_sent += nbytes
        if src == dst:
            # MU loopback (sends between processes on one node, or to
            # self): no torus links, just the MU ingress/egress path.
            if packet is not None:
                Timeout(env, self.params.nic_latency, (packet, done)).callbacks = self._arrive_cbs
            return done
        route = self.torus.route(
            src, dst, None if self.routing == "deterministic" else self._dim_order()
        )
        fault = self.fault
        action = (fault.on_route(packet, route)
                  if fault is not None and packet is not None else None)
        n = self._node_inject_seq.get(src, 0)
        self._node_inject_seq[src] = n + 1
        pending = self._pending
        if not pending and self.ledger is not None:
            # A zero timeout runs after every event already scheduled at
            # this timestamp, i.e. after all simultaneous injects.
            Timeout(env, 0.0).callbacks = self._flush_cbs
        pending.append((env.now, src, n, route, nbytes, dst, packet, done, action))
        return done

    def _flush_reservations(self, _event: Event) -> None:
        """Reserve this timestamp's requests in canonical order and
        start each observed packet's flight."""
        pending = self._pending
        if len(pending) > 1:
            # The (t, node, counter) head is unique: the sort never
            # compares the later fields.
            pending.sort()
        env = self.env
        reserve = self.ledger.reserve
        arrive_cbs = self._arrive_cbs
        for t, _node, _n, route, nbytes, _dst, packet, done, action in pending:
            arrival = reserve(route, nbytes, t)
            if packet is None:
                continue
            if action is not None:
                if action.drop:
                    # Lost in flight: links were still occupied up to the
                    # loss point (we conservatively charge the full route),
                    # but the packet never arrives and ``done`` (if any)
                    # never fires.
                    continue
                arrival += action.extra_delay
                if action.dup_gap is not None:
                    # Delivery only: no sender waits on the copy.
                    Timeout(env, arrival + action.dup_gap - t, (packet, None)).callbacks = arrive_cbs
            Timeout(env, arrival - t, (packet, done)).callbacks = arrive_cbs
        pending.clear()

    def _arrive(self, flight: Timeout) -> None:
        """A flight lands: deliver the packet, then complete its sender."""
        packet, done = flight._value
        if self.deliver is not None:
            self.deliver(packet)
        if done is not None:
            done.succeed(packet)
