"""Shard-boundary routing for the sharded torus (docs/SCALING.md).

The serial :class:`~repro.bgq.network.TorusNetwork` reserves links
*globally and instantly* at injection time — exactly the property a
naively partitioned network loses.  Rather than approximate it with
per-shard link state (which diverges from the serial trajectory), the
sharded engine keeps link reservation **central**: each shard's
:class:`ShardTorusNetwork` buffers every non-loopback injection as a
timestamped request, and at every window barrier the
:class:`ReservationFabric` replays all buffered requests through the
serial cut-through arithmetic (`TorusNetwork.reserve_route`, same
float-op order) in the canonical ``(inject time, src node, per-node
counter)`` order — the exact order the serial network's own deferred
reservation flush uses, so it is shard-count independent.  The window
never exceeds the lookahead (NIC latency), so requests of window *k*
are all known — and globally ordered — before any of their arrivals
(in window *k+1* or later) execute.

Each granted request becomes *external events* carrying the canonical
ordering key (see :mod:`repro.sim.shard`): the
packet delivery on the destination shard (``machine._deliver`` → the
``MU.receive_packet`` choke point, the same seam the fault injector
uses) and, for a packet its sender waits on, the sender's completion
event on the source shard.  When both ends live on one shard, a single
combined event preserves the serial deliver-then-complete order.

Loopback (``src == dst``) packets never cross a shard boundary and
keep the serial in-process path.  Unsupported under sharding (they
read cross-shard global state): adaptive routing, fault injection.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..sim import Event
from ..sim.shard import ShardEnvironment, _SeqKey
from .machine import BGQMachine
from .network import MEMFIFO, Packet, TorusNetwork
from .params import BGQParams, DEFAULT_PARAMS
from .torus import Torus, bgq_partition_shape

__all__ = [
    "ShardTorusNetwork",
    "ReservationFabric",
    "ShardedBGQMachine",
    "ShardClient",
    "shard_of_node",
]


def shard_of_node(node_id: int, nnodes: int, nshards: int) -> int:
    """Contiguous-block node→shard map (``nnodes % nshards == 0``)."""
    return node_id // (nnodes // nshards)


class _SendRequest:
    """One buffered cross-node injection awaiting barrier reservation.

    ``(t, node, n)`` — inject time, source node, per-node inject
    counter — is the canonical reservation order, identical to the
    serial network's deferred-flush order
    (:meth:`repro.bgq.network.TorusNetwork._flush_reservations`).
    """

    __slots__ = ("t", "node", "n", "packet", "done")

    def __init__(
        self, t: float, node: int, n: int, packet: Packet, done: Optional[Event]
    ) -> None:
        self.t = t
        self.node = node
        self.n = n
        self.packet = packet
        self.done = done


class _WirePacket:
    """Serialization shim: just enough packet for `_serialization`."""

    __slots__ = ("payload_bytes",)

    def __init__(self, payload_bytes: int) -> None:
        self.payload_bytes = payload_bytes


class ShardTorusNetwork(TorusNetwork):
    """One shard's view of the torus: buffers routed sends for the fabric.

    Loopback injections and all statistics behave exactly like the
    serial network; only `_inject_routed` changes, from
    reserve-and-fly to buffer-for-barrier.
    """

    def __init__(
        self,
        env: ShardEnvironment,
        torus: Torus,
        params: BGQParams,
        deliver,
        shard_id: int,
    ) -> None:
        super().__init__(env, torus, params, deliver=deliver, routing="deterministic")
        self.shard_id = shard_id
        self._pending: List[_SendRequest] = []

    def _inject_routed(self, packet: Packet, done: Optional[Event]) -> Optional[Event]:
        if self.routing != "deterministic":  # pragma: no cover - guarded in ctor
            raise NotImplementedError(
                "adaptive routing keys its dimension permutation on a global "
                "packet counter and is not supported under sharding"
            )
        if self.fault is not None:
            raise NotImplementedError(
                "fault injection is not supported under sharding "
                "(see docs/SCALING.md)"
            )
        node = packet.src
        n = self._node_inject_seq.get(node, 0)
        self._node_inject_seq[node] = n + 1
        self._pending.append(_SendRequest(self.env.now, node, n, packet, done))
        return done


class ReservationFabric:
    """Central link-reservation state shared by every shard.

    Owns the global busy-until link timeline and replays buffered
    requests in deterministic ``(inject_time, shard, counter)`` order,
    running the *identical* reservation arithmetic as the serial
    network (the unbound ``TorusNetwork.reserve_route`` /
    ``_serialization`` methods are invoked with the fabric supplying
    ``_link_free``/``params``) so arrival times are bit-identical.

    Used two ways: `flush` for in-process shards (registered via
    `register_shard`, externals scheduled directly), and
    `process` for the subprocess transport (pure arithmetic over
    wire-format requests; the parent ships the resulting external
    records back to the shard children).
    """

    def __init__(
        self,
        nnodes: int,
        nshards: int,
        params: BGQParams = DEFAULT_PARAMS,
        shape: Optional[Sequence[int]] = None,
    ) -> None:
        if nshards < 1:
            raise ValueError("need at least one shard")
        if nnodes % nshards:
            raise ValueError(
                f"nnodes={nnodes} must divide evenly into nshards={nshards}"
            )
        self.nnodes = nnodes
        self.nshards = nshards
        self.params = params
        self.torus = Torus(shape if shape is not None else bgq_partition_shape(nnodes))
        self._link_free: Dict[Tuple[int, int], float] = {}
        #: shard_id -> (env, machine, network); in-process transport only.
        self.shards: Dict[int, Tuple[Any, Any, ShardTorusNetwork]] = {}
        self.requests_processed = 0

    # -- protocol constants -----------------------------------------------
    @property
    def window(self) -> float:
        """The synchronization window: the NIC latency, safely below
        the lookahead, so barrier-exchanged arrivals are always in the
        destination shard's future."""
        return self.params.nic_latency

    def shard_of(self, node_id: int) -> int:
        return shard_of_node(node_id, self.nnodes, self.nshards)

    # -- in-process transport ----------------------------------------------
    def register_shard(self, shard_id: int, env, machine, network: ShardTorusNetwork) -> None:
        if shard_id in self.shards:
            raise ValueError(f"shard {shard_id} already registered")
        self.shards[shard_id] = (env, machine, network)

    def pending(self) -> int:
        return sum(len(net._pending) for _, _, net in self.shards.values())

    def flush(self) -> int:
        """Reserve + schedule every buffered request (window barrier)."""
        reqs: List[_SendRequest] = []
        for _, _, net in self.shards.values():
            if net._pending:
                reqs.extend(net._pending)
                net._pending.clear()
        if not reqs:
            return 0
        # Canonical global order — chronological, same-time ties by
        # (src node, per-node counter): exactly the serial network's
        # deferred-flush order, shard-count independent.
        reqs.sort(key=lambda r: (r.t, r.node, r.n))
        for r in reqs:
            pkt = r.packet
            route = self.torus.route(pkt.src, pkt.dst, dim_order=None)
            ser = TorusNetwork._serialization(self, pkt)
            arrival = TorusNetwork.reserve_route(self, route, ser, r.t)
            # Origins >= nshards sort external events after any local
            # event key (origin = shard id < nshards) at an equal heap
            # time — the serial order: `TorusNetwork._launch` creates
            # the flight timeout in the reservation flush, after every
            # local event that existed at the inject timestamp.
            key = _SeqKey(r.t, self.nshards + r.node, r.n, None)
            src_shard = self.shard_of(pkt.src)
            dst_shard = self.shard_of(pkt.dst)
            src_env = self.shards[src_shard][0]
            dst_env, dst_machine, _ = self.shards[dst_shard]
            done = r.done
            if done is not None and dst_shard == src_shard:
                # One event, serial order: deliver, then complete the
                # sender (two same-key heap entries would collide).
                def fire(pkt=pkt, done=done, machine=dst_machine):
                    machine._deliver(pkt)
                    done.succeed(pkt)

                src_env.schedule_external(arrival, key, fire)
            else:
                dst_env.schedule_external(
                    arrival,
                    key,
                    lambda pkt=pkt, machine=dst_machine: machine._deliver(pkt),
                )
                if done is not None:  # an unawaited packet completes nothing
                    src_env.schedule_external(
                        arrival,
                        key,
                        lambda done=done, pkt=pkt: done.succeed(pkt),
                    )
        self.requests_processed += len(reqs)
        return len(reqs)

    # -- subprocess transport ------------------------------------------------
    def process(self, requests: List[dict]) -> Tuple[Dict[int, list], Dict[int, list]]:
        """Wire-format flush: reserve and emit external records.

        Returns ``(externals_by_shard, arrivals_by_shard)`` — the
        parent forwards the records to each shard child
        (:meth:`ShardClient.apply_external`) and uses the arrival times
        to tighten its view of each child's next event.
        """
        requests.sort(key=lambda r: tuple(r["key"]))
        externals: Dict[int, list] = {}
        arrivals: Dict[int, list] = {}
        for r in requests:
            route = self.torus.route(r["src"], r["dst"], dim_order=None)
            ser = TorusNetwork._serialization(self, _WirePacket(r["payload_bytes"]))
            arrival = TorusNetwork.reserve_route(self, route, ser, r["t"])
            key3 = tuple(r["key"])  # (t, src_node, per-node counter)
            src_shard = self.shard_of(r["src"])
            dst_shard = self.shard_of(r["dst"])
            if dst_shard == src_shard:
                externals.setdefault(src_shard, []).append(("both", key3, arrival))
            else:
                externals.setdefault(dst_shard, []).append(
                    ("deliver", key3, arrival, r)
                )
                arrivals.setdefault(dst_shard, []).append(arrival)
                if not r["wait"]:  # an unawaited packet completes nothing
                    continue
                externals.setdefault(src_shard, []).append(("grant", key3, arrival))
            arrivals.setdefault(src_shard, []).append(arrival)
        self.requests_processed += len(requests)
        return externals, arrivals


class ShardedBGQMachine(BGQMachine):
    """One shard's slice of a BG/Q partition.

    Builds the full torus geometry but only the nodes of this shard's
    contiguous block; remote slots in ``nodes`` are ``None``
    placeholders so global node ids keep working.  The network is a
    :class:`ShardTorusNetwork` wired to ``fabric`` (pass ``None`` in a
    subprocess child — the parent owns the fabric there).
    """

    def __init__(
        self,
        env: ShardEnvironment,
        nnodes: int,
        shard_id: int,
        nshards: int,
        fabric: Optional[ReservationFabric] = None,
        params: BGQParams = DEFAULT_PARAMS,
        shape: Optional[Sequence[int]] = None,
    ) -> None:
        if nnodes % nshards:
            raise ValueError(
                f"nnodes={nnodes} must divide evenly into nshards={nshards}"
            )
        self.shard_id = shard_id
        self.nshards = nshards
        block = nnodes // nshards
        local = set(range(shard_id * block, (shard_id + 1) * block))
        super().__init__(
            env,
            nnodes,
            params,
            shape=shape,
            local_nodes=local,
            network_factory=lambda e, torus, p, deliver: ShardTorusNetwork(
                e, torus, p, deliver, shard_id=shard_id
            ),
        )
        if fabric is not None:
            fabric.register_shard(shard_id, env, self, self.network)

    def attach_faults(self, injector) -> None:
        raise NotImplementedError(
            "fault injection is not supported on a sharded machine: the "
            "injector keys decisions on global packet/message counters "
            "(see docs/SCALING.md)"
        )


class ShardClient:
    """Child-side adapter for :func:`repro.sim.shard.run_sharded_subprocesses`.

    Converts buffered send requests to wire format (and remembers their
    completion events), and applies the parent's external records.  The
    wire format carries only value payloads, so the subprocess
    transport supports memory-FIFO (eager active-message) traffic —
    benchmarks whose payloads hold object references (e.g. the m2m slot
    back-channel) must use the in-process transport instead.
    """

    def __init__(self, env: ShardEnvironment, machine: ShardedBGQMachine,
                 done: Optional[Event] = None, result_fn=None) -> None:
        self.env = env
        self.machine = machine
        self.done = done
        self._result_fn = result_fn
        self._awaiting: Dict[tuple, Tuple[Event, Packet]] = {}

    def drain_requests(self) -> List[dict]:
        out: List[dict] = []
        net = self.machine.network
        for r in net._pending:
            pkt = r.packet
            if pkt.kind != MEMFIFO:
                raise NotImplementedError(
                    f"subprocess transport cannot ship {pkt.kind!r} packets "
                    "(RDMA flows carry object references); use the "
                    "in-process transport"
                )
            payload = pkt.message.message  # Descriptor -> AMPayload
            key3 = (r.t, r.node, r.n)
            wait = r.done is not None
            if wait or pkt.dst in self.machine.local_node_ids:
                self._awaiting[key3] = (r.done, pkt)  # a grant or both record
            out.append(
                {
                    "key": key3,
                    "t": r.t,
                    "wait": wait,
                    "src": pkt.src,
                    "dst": pkt.dst,
                    "payload_bytes": pkt.payload_bytes,
                    "rec_fifo": pkt.rec_fifo,
                    "seq": pkt.seq,
                    "is_last": pkt.is_last,
                    "payload": (
                        payload.dispatch_id,
                        payload.data,
                        payload.nbytes,
                        payload.src_endpoint,
                        payload.seq,
                    ),
                }
            )
        net._pending.clear()
        return out

    def _key(self, key3) -> _SeqKey:
        # Same origin offset as ReservationFabric.flush: externals sort
        # after local event keys at an equal heap time.
        t, node, n = key3
        return _SeqKey(t, self.machine.nshards + node, n, None)

    def apply_external(self, rec: tuple) -> None:
        kind = rec[0]
        if kind == "deliver":
            _, key3, arrival, wire = rec
            pkt = _rebuild_packet(wire)
            self.env.schedule_external(
                arrival,
                self._key(key3),
                lambda: self.machine._deliver(pkt),
            )
        elif kind == "grant":
            _, key3, arrival = rec
            done, pkt = self._awaiting.pop(tuple(key3))
            self.env.schedule_external(
                arrival, self._key(key3), lambda: done.succeed(pkt)
            )
        elif kind == "both":
            _, key3, arrival = rec
            done, pkt = self._awaiting.pop(tuple(key3))

            def fire():
                self.machine._deliver(pkt)
                if done is not None:
                    done.succeed(pkt)

            self.env.schedule_external(arrival, self._key(key3), fire)
        else:  # pragma: no cover - protocol error
            raise RuntimeError(f"unknown external record {kind!r}")

    def result(self) -> Any:
        return self._result_fn() if self._result_fn is not None else None


class _WireDescriptor:
    """Reconstructed descriptor: just what the receive path reads."""

    __slots__ = ("message", "corrupted")

    def __init__(self, message: Any) -> None:
        self.message = message
        self.corrupted = False


def _rebuild_packet(wire: dict) -> Packet:
    from ..pami.context import AMPayload

    dispatch_id, data, nbytes, src_endpoint, seq = wire["payload"]
    payload = AMPayload(dispatch_id, data, nbytes, tuple(src_endpoint))
    payload.seq = seq
    return Packet(
        src=wire["src"],
        dst=wire["dst"],
        kind=MEMFIFO,
        payload_bytes=wire["payload_bytes"],
        rec_fifo=wire["rec_fifo"],
        message=_WireDescriptor(payload),
        seq=wire["seq"],
        is_last=wire["is_last"],
    )
