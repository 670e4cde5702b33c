"""Shard-boundary routing for the sharded torus (docs/SCALING.md).

The serial :class:`~repro.bgq.network.TorusNetwork` reserves links
*globally*: every routed inject is a request, and its zero-delay flush
reserves a timestamp's requests through one
:class:`~repro.bgq.network.LinkLedger` in the canonical ``(inject time,
src node, per-node counter)`` order.  A naively partitioned network
would lose that.  Rather than approximate it with per-shard link state
(which diverges from the serial trajectory), the sharded engine keeps
link reservation **central**: a shard's network has no ledger, so its
requests stay pending, and at every window barrier the
:class:`ReservationFabric` reserves all shards' requests through its
own ledger in the same canonical order, which is shard-count
independent.  The window never exceeds the lookahead (NIC latency), so
requests of window *k* are all known — and globally ordered — before
any of their arrivals (in window *k+1* or later) execute.

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

from typing import Any, Dict, Optional, Sequence, Tuple

from ..sim import Event
from ..sim.shard import ShardEnvironment, _SeqKey
from .machine import BGQMachine
from .network import MEMFIFO, LinkLedger, Packet
from .params import BGQParams, DEFAULT_PARAMS

__all__ = [
    "ReservationFabric",
    "ShardedBGQMachine",
    "ShardClient",
    "WireShardClient",
    "shard_of_node",
]


def shard_of_node(node_id: int, nnodes: int, nshards: int) -> int:
    """Contiguous-block node→shard map (``nnodes % nshards == 0``)."""
    return node_id // (nnodes // nshards)


class ReservationFabric:
    """Central link-reservation state shared by every shard.

    Owns the global link timeline (a :class:`~repro.bgq.network.LinkLedger`,
    the one the serial network reserves through) and replays buffered
    requests in the serial flush's ``(inject time, src node, counter)``
    order, so arrival times are bit-identical.

    One client per shard (registered via `register_shard`) hands over
    requests and applies records: a :class:`ShardClient` in process,
    the parent-side proxy of a forked child under the `mp` transport.
    """

    def __init__(self, nnodes: int, nshards: int, params: BGQParams = DEFAULT_PARAMS) -> None:
        if nshards < 1:
            raise ValueError("need at least one shard")
        if nnodes % nshards:
            raise ValueError(
                f"nnodes={nnodes} must divide evenly into nshards={nshards}"
            )
        self.nnodes = nnodes
        self.nshards = nshards
        self.params = params
        self.ledger = LinkLedger(params)
        #: shard_id -> client (``take_requests``/``apply``/``pending``).
        self.clients: Dict[int, Any] = {}
        self.requests_processed = 0

    @property
    def window(self) -> float:
        """The synchronization window: the NIC latency, safely below
        the lookahead, so barrier-exchanged arrivals are always in the
        destination shard's future."""
        return self.params.nic_latency

    def shard_of(self, node_id: int) -> int:
        return shard_of_node(node_id, self.nnodes, self.nshards)

    def register_shard(self, shard_id: int, client) -> None:
        if shard_id in self.clients:
            raise ValueError(f"shard {shard_id} already registered")
        self.clients[shard_id] = client

    def pending(self) -> int:
        return sum(client.pending() for client in self.clients.values())

    def flush(self) -> int:
        """The window barrier: reserve every buffered request and hand
        each shard's records to its client; returns the request count."""
        requests: list = []
        for client in self.clients.values():
            requests += client.take_requests()
        for shard_id, records in self.reserve(requests).items():
            self.clients[shard_id].apply(records)
        return len(requests)

    def reserve(self, requests: list) -> Dict[int, list]:
        """Replay ``(t, node, n, route, payload_bytes, dst, wait, wire)``
        requests; returns ``{shard_id: [(kind, arrival, (t, node, n),
        wire)]}``.

        A ``deliver`` record goes to the destination shard and a
        ``grant`` (the sender's completion, ``wire`` None) to the source
        shard, only for a packet its sender waits on.  When both ends
        share a shard, an awaited packet is one ``both`` record: one
        event, serial order — deliver, then complete the sender (two
        same-key heap entries would collide).  A quiet packet's request
        (``wire`` None) only reserves its route.
        """
        # Canonical global order — chronological, same-time ties by
        # (src node, per-node counter): exactly the serial network's
        # flush order, shard-count independent.  The triple is unique,
        # so the sort never compares the later fields.
        requests.sort()
        records: Dict[int, list] = {}
        reserve = self.ledger.reserve
        for t, node, n, route, nbytes, dst, wait, wire in requests:
            arrival = reserve(route, nbytes, t)
            if wire is None:
                continue
            src_shard, dst_shard = self.shard_of(node), self.shard_of(dst)
            if src_shard == dst_shard:
                kind = "both" if wait else "deliver"
                records.setdefault(dst_shard, []).append((kind, arrival, (t, node, n), wire))
                continue
            records.setdefault(dst_shard, []).append(("deliver", arrival, (t, node, n), wire))
            if wait:  # an unawaited packet completes nothing
                records.setdefault(src_shard, []).append(("grant", arrival, (t, node, n), None))
        self.requests_processed += len(requests)
        return records


class ShardedBGQMachine(BGQMachine):
    """One shard's slice of a BG/Q partition.

    Builds the full torus geometry but only the nodes of this shard's
    contiguous block; remote slots in ``nodes`` are ``None``
    placeholders so global node ids keep working.  Its network has no
    ledger, so routed sends wait in the network's ``_pending`` for the
    fabric's barrier; with ``fabric`` the machine registers its
    :class:`ShardClient` there (pass ``None`` in a subprocess child —
    the parent owns the fabric there).
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
        super().__init__(env, nnodes, params, shape=shape, local_nodes=local)
        self.network.ledger = None  # the fabric reserves
        if fabric is not None:
            fabric.register_shard(shard_id, ShardClient(env, self))

    def attach_faults(self, injector) -> None:
        raise NotImplementedError(
            "fault injection is not supported on a sharded machine: the "
            "injector keys decisions on global packet/message counters "
            "(see docs/SCALING.md)"
        )


class ShardClient:
    """One shard's adapter to the :class:`ReservationFabric`.

    ``take_requests`` drains the network's buffered sends into fabric
    requests and remembers each awaited packet's completion event;
    ``apply`` turns the fabric's records into external events, the one
    place either transport calls ``schedule_external``.  In process a
    packet travels as itself; :class:`WireShardClient` is the same
    adapter inside a forked child.  ``done`` and ``result_fn`` serve
    the subprocess transport (:func:`repro.sim.shard._shard_worker`).
    """

    def __init__(self, env: ShardEnvironment, machine: ShardedBGQMachine,
                 done: Optional[Event] = None, result_fn=None) -> None:
        self.env = env
        self.machine = machine
        self.done = done
        self._result_fn = result_fn
        self._awaiting: Dict[tuple, Tuple[Event, Packet]] = {}

    @staticmethod
    def _encode(packet: Packet) -> Any:
        return packet

    _decode = _encode

    def pending(self) -> int:
        return len(self.machine.network._pending)

    def take_requests(self) -> list:
        net = self.machine.network
        out = []
        for t, node, n, route, nbytes, dst, pkt, done, _action in net._pending:
            if done is not None:
                self._awaiting[(t, node, n)] = (done, pkt)
            out.append((t, node, n, route, nbytes, dst, done is not None,
                        None if pkt is None else self._encode(pkt)))
        net._pending.clear()
        return out

    def apply(self, records: list) -> None:
        env, deliver, decode = self.env, self.machine._deliver, self._decode
        # Origins >= nshards sort external events after any local event
        # key (origin = shard id < nshards) at an equal heap time — the
        # serial order: the serial network creates the flight timeout
        # in its reservation flush, after every local event that
        # existed at the inject timestamp.
        origin = self.machine.nshards
        for kind, arrival, (t, node, n), wire in records:
            pkt = None if wire is None else decode(wire)
            done, sent = (None, None) if kind == "deliver" else self._awaiting.pop((t, node, n))

            def fire(_ev, pkt=pkt, done=done, sent=sent):
                if pkt is not None:
                    deliver(pkt)
                if done is not None:
                    done.succeed(sent)

            env.schedule_external(arrival, _SeqKey((t, origin + node, n, None)), fire)

    def result(self) -> Any:
        return self._result_fn() if self._result_fn is not None else None


class WireShardClient(ShardClient):
    """:class:`ShardClient` inside a forked child: packets cross the
    rings as plain values.  Only memory-FIFO (eager active-message)
    traffic has one, so benchmarks whose payloads hold object
    references (e.g. the m2m slot back-channel) must use the in-process
    transport instead.
    """

    @staticmethod
    def _encode(pkt: Packet) -> tuple:
        if pkt.kind != MEMFIFO:
            raise NotImplementedError(
                f"subprocess transport cannot ship {pkt.kind!r} packets "
                "(RDMA flows carry object references); use the "
                "in-process transport"
            )
        am = pkt.message.message  # Descriptor -> AMPayload
        return (pkt.src, pkt.dst, pkt.payload_bytes, pkt.rec_fifo, pkt.seq, pkt.is_last,
                am.dispatch_id, am.data, am.nbytes, am.src_endpoint, am.seq)

    @staticmethod
    def _decode(wire: tuple) -> Packet:
        from ..pami.context import AMPayload

        src, dst, nbytes, rec_fifo, seq, is_last, dispatch_id, data, am_nbytes, endpoint, am_seq = wire
        payload = AMPayload(dispatch_id, data, am_nbytes, tuple(endpoint))
        payload.seq = am_seq
        return Packet(src=src, dst=dst, kind=MEMFIFO, payload_bytes=nbytes,
                      rec_fifo=rec_fifo, message=_WireDescriptor(payload),
                      seq=seq, is_last=is_last)


class _WireDescriptor:
    """Reconstructed descriptor: just what the receive path reads."""

    __slots__ = ("message", "corrupted")

    def __init__(self, message: Any) -> None:
        self.message = message
        self.corrupted = False
