"""Conservative parallel DES: shard-local environments in lockstep.

The single-process :class:`~repro.sim.Environment` tops out around
O(32) simulated BG/Q nodes; this module is the engine side of the
sharded torus (docs/SCALING.md).  The simulated machine is partitioned
into *shards*, each with its own event queue and clock, and a
:class:`ShardCoordinator` advances all shards through a sequence of
half-open time windows::

    window = [T, T + W)   with   W <= lookahead

where the *lookahead* is the minimum simulated delay of any cross-shard
interaction (for the BG/Q torus: NIC injection latency — every packet
spends at least ``nic_latency + hop_latency`` cycles before touching
another node, see :mod:`repro.bgq.shardnet`).  Within a window shards
execute independently; cross-shard sends are buffered and exchanged at
the window barrier, where they are scheduled as *external events* in
the destination shard — always in that shard's future, because the
window never outruns the lookahead.  This is classic conservative
(Chandy–Misra–Bryant-style) synchronization, with the barrier playing
the role of null messages.

Determinism
-----------
The serial engine orders same-time events by an integer schedule
sequence number.  Across shards there is no shared counter, so sharded
runs order events by a :class:`_SeqKey` ``(alloc_time, shard, counter)``
triple instead: within one shard this collapses to allocation order
(the serial order — allocation times are monotonic), and across shards
it is a deterministic total order independent of host scheduling.  The
key type plugs into the engine's hot path *unmodified*: the engine
allocates sequence numbers with ``env._seq = env._seq + 1``, so a
``_SeqKey`` held in ``_seq`` mints its successor via ``__add__``.

Transports
----------
:class:`ShardCoordinator` runs every shard in one host process
(`inproc`) — zero-copy, used by the equivalence gate and tests.
:func:`run_sharded_subprocesses` forks one OS process per shard and
exchanges window/sync frames over shared-memory SPSC rings
(:class:`ShmRing`); payloads must then be picklable.  Both transports
execute the identical window protocol, so they produce identical
trajectories.
"""

from __future__ import annotations

import heapq
import pickle
import struct
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .engine import _TRIGGERED, Environment, Event, SimulationError

__all__ = [
    "ShardEnvironment",
    "ShardCoordinator",
    "ShardStallError",
    "ShmRing",
    "run_sharded_subprocesses",
]

_INF = float("inf")


class ShardStallError(SimulationError):
    """No shard can advance and no cross-shard traffic is in flight.

    The sharded analogue of the serial engine's "ran out of events
    before the stop event triggered" — see docs/SCALING.md
    ("Troubleshooting stalled shards") for how to read the diagnostic.
    """


class _SeqKey:
    """Deterministic total order for same-time events across shards.

    Compares as the tuple ``(t, origin, n)``: allocation time, then the
    allocating shard id, then that shard's allocation counter.  The
    engine's ``env._seq = env._seq + 1`` pattern mints successors via
    :meth:`__add__`, reading the clock and counter through a
    back-reference to the owning :class:`ShardEnvironment`; keys
    reconstructed from the wire carry no environment (``env=None``) and
    are never incremented.
    """

    __slots__ = ("t", "origin", "n", "_env")

    def __init__(self, t: float, origin: int, n: int, env=None) -> None:
        self.t = t
        self.origin = origin
        self.n = n
        self._env = env

    def __add__(self, _other) -> "_SeqKey":
        # Only the engine's `_seq + 1` reaches this.
        env = self._env
        env._key_counter = n = env._key_counter + 1
        return _SeqKey(env.now, env.shard_id, n, env)

    def triple(self) -> Tuple[float, int, int]:
        """Wire form (picklable, env-free)."""
        return (self.t, self.origin, self.n)

    def __lt__(self, other: "_SeqKey") -> bool:
        return (self.t, self.origin, self.n) < (other.t, other.origin, other.n)

    def __le__(self, other: "_SeqKey") -> bool:
        return (self.t, self.origin, self.n) <= (other.t, other.origin, other.n)

    def __gt__(self, other: "_SeqKey") -> bool:
        return (self.t, self.origin, self.n) > (other.t, other.origin, other.n)

    def __ge__(self, other: "_SeqKey") -> bool:
        return (self.t, self.origin, self.n) >= (other.t, other.origin, other.n)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _SeqKey)
            and (self.t, self.origin, self.n) == (other.t, other.origin, other.n)
        )

    def __hash__(self) -> int:
        return hash((self.t, self.origin, self.n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_SeqKey(t={self.t!r}, origin={self.origin}, n={self.n})"


class ShardEnvironment(Environment):
    """An :class:`Environment` that is one shard of a partitioned run.

    Identical hot path; the only differences are (a) schedule sequence
    numbers are :class:`_SeqKey` triples so same-time ordering is
    host-independent, and (b) :meth:`schedule_external` lets the
    coordinator push barrier-exchanged events straight onto the heap.
    With a single shard this is trajectory-identical to the serial
    engine: keys compare in allocation order exactly like the serial
    integer sequence.
    """

    __slots__ = ("shard_id", "_key_counter")

    def __init__(self, shard_id: int = 0, initial_time: float = 0.0) -> None:
        super().__init__(initial_time)
        self.shard_id = int(shard_id)
        self._key_counter = 0
        self._seq = _SeqKey(self._now, self.shard_id, 0, self)

    def schedule_external(self, when: float, key: _SeqKey, fn: Callable[[], None]) -> None:
        """Schedule ``fn()`` at ``when`` under a pre-allocated key.

        Bypasses :meth:`Event.succeed` (which would mint a fresh key at
        the *current* time): the event enters the heap already
        triggered, carrying the ordering key allocated when the
        originating send happened.  ``when`` must be in this shard's
        future — guaranteed by the lookahead bound, asserted here
        because violating it silently would corrupt causality.
        """
        if when < self._now:
            raise SimulationError(
                f"external event at t={when} is in shard {self.shard_id}'s "
                f"past (now={self._now}): lookahead/window mismatch"
            )
        ev = Event(self)
        ev._state = _TRIGGERED
        ev.callbacks = [lambda _ev, _fn=fn: _fn()]
        heapq.heappush(self._queue, (when, key, ev))


class ShardCoordinator:
    """Lockstep window driver for in-process shards.

    ``fabric`` is the cross-shard exchange (for the BG/Q torus:
    :class:`repro.bgq.shardnet.ReservationFabric`); it must provide
    ``flush() -> int`` (process buffered sends, schedule externals,
    return how many) and ``pending() -> int`` (sends buffered but not
    yet flushed).  ``window`` must not exceed the fabric's lookahead.
    """

    def __init__(
        self,
        shards: Sequence[ShardEnvironment],
        window: float,
        fabric=None,
    ) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.shards = list(shards)
        self.window = float(window)
        self.fabric = fabric
        self.windows_run = 0

    def run(self, until: Event) -> Any:
        """Advance all shards until ``until`` (an event on one of them)."""
        if until.env not in self.shards:
            raise ValueError("`until` event does not belong to any shard")
        while not self.advance_window(until):
            pass
        return until.value

    def advance_window(self, done: Event) -> bool:
        """Run one barrier-to-barrier window; True once ``done`` is processed.

        The clock-advance rule (docs/SCALING.md): flush cross-shard
        traffic, then run every shard through ``[T, T + window)`` where
        ``T = min(next event time over all shards)`` — the idle-jump
        directly to the earliest work, so sparsely loaded shard sets
        don't crawl through empty windows.  Raises
        :class:`ShardStallError` when nothing is pending anywhere.
        :meth:`run` is a loop over this; a caller that must yield
        between windows (``repro.serve.ShardedTask``) calls it directly.
        """
        if done.processed:
            return True
        if self.fabric is not None:
            self.fabric.flush()
        m = min(env.peek() for env in self.shards)
        if m == _INF:
            raise ShardStallError(self._stall_report(done))
        end = m + self.window
        root = done.env
        for env in self.shards:
            env.run_window(end, done if env is root else None)
        self.windows_run += 1
        return done.processed

    def _stall_report(self, done: Event) -> str:
        lines = [
            "sharded run stalled: every shard is idle, no cross-shard "
            f"traffic is in flight, and {done!r} never triggered.",
        ]
        for env in self.shards:
            lines.append(
                f"  shard {env.shard_id}: now={env.now} next_event="
                f"{env.peek()} executed={env.events_executed}"
            )
        if self.fabric is not None:
            lines.append(f"  fabric: pending={self.fabric.pending()}")
        lines.append(
            "  (see docs/SCALING.md, 'Troubleshooting stalled shards')"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subprocess transport: shared-memory rings + window/sync protocol
# ---------------------------------------------------------------------------

_HDR = struct.Struct("<Q")  # one 8-byte cursor per ring end
_LEN = struct.Struct("<I")  # frame length prefix


class ShmRing:
    """SPSC byte ring over ``multiprocessing.shared_memory``.

    Layout: ``[head:8][tail:8][data:capacity]``.  The producer owns
    ``tail``, the consumer owns ``head``; frames are length-prefixed
    pickles.  Polling uses a short host sleep — shard barriers are
    O(windows) per run, far off any hot path.
    """

    def __init__(self, capacity: int = 1 << 20, *, name: Optional[str] = None) -> None:
        from multiprocessing import shared_memory

        self.capacity = capacity
        if name is None:
            self._shm = shared_memory.SharedMemory(create=True, size=16 + capacity)
            self.owner = True
        else:
            self._shm = shared_memory.SharedMemory(name=name)
            self.owner = False
        self.name = self._shm.name
        self._buf = self._shm.buf

    # -- cursors ----------------------------------------------------------
    def _get(self, off: int) -> int:
        return _HDR.unpack_from(self._buf, off)[0]

    def _set(self, off: int, value: int) -> None:
        _HDR.pack_into(self._buf, off, value)

    # -- byte I/O ---------------------------------------------------------
    def _write_bytes(self, data: bytes, deadline: float) -> None:
        cap = self.capacity
        need = len(data)
        if need >= cap:
            raise ValueError(f"frame of {need} B exceeds ring capacity {cap}")
        while True:
            head = self._get(0)
            tail = self._get(8)
            if cap - (tail - head) > need:  # keep one byte free
                break
            # Host-side IPC deadline (hung-peer guard), never simulated
            # time — the frames themselves carry the simulated clocks.
            if time.monotonic() > deadline:  # repro-lint: disable=D1
                raise TimeoutError("ShmRing write timed out (ring full)")
            time.sleep(0.0002)
        pos = tail % cap
        first = min(need, cap - pos)
        self._buf[16 + pos : 16 + pos + first] = data[:first]
        if first < need:
            self._buf[16 : 16 + need - first] = data[first:]
        self._set(8, tail + need)

    def _read_bytes(self, need: int, deadline: float, peer=None) -> bytes:
        cap = self.capacity
        while True:
            head = self._get(0)
            tail = self._get(8)
            if tail - head >= need:
                break
            # A dead producer never fills the ring (its last frame may
            # have landed since the tail was read: read it once more).
            if peer is not None and peer.exitcode is not None and self._get(8) - head < need:
                raise ShardStallError(f"{peer.name} exited with exit code {peer.exitcode}")
            if time.monotonic() > deadline:  # repro-lint: disable=D1
                raise TimeoutError("ShmRing read timed out (ring empty)")
            time.sleep(0.0002)
        pos = head % cap
        first = min(need, cap - pos)
        out = bytes(self._buf[16 + pos : 16 + pos + first])
        if first < need:
            out += bytes(self._buf[16 : 16 + need - first])
        self._set(0, head + need)
        return out

    # -- frames -----------------------------------------------------------
    def send(self, obj: Any, timeout: float = 120.0) -> None:
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        deadline = time.monotonic() + timeout  # repro-lint: disable=D1
        self._write_bytes(_LEN.pack(len(data)), deadline)
        self._write_bytes(data, deadline)

    def recv(self, timeout: float = 120.0, peer=None) -> Any:
        """Next frame; ShardStallError if the producer process ``peer`` dies."""
        deadline = time.monotonic() + timeout  # repro-lint: disable=D1
        (n,) = _LEN.unpack(self._read_bytes(_LEN.size, deadline, peer))
        return pickle.loads(self._read_bytes(n, deadline, peer))

    def close(self) -> None:
        self._buf = None
        self._shm.close()
        if self.owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass


def _shard_worker(shard_id: int, nshards: int, build_client, to_child: ShmRing, to_parent: ShmRing) -> None:
    """Child main loop: build the shard, then serve window frames."""
    try:
        client = build_client(shard_id, nshards)
        env = client.env
        done = getattr(client, "done", None)
        to_parent.send(
            {"type": "sync", "peek": env.peek(), "requests": [], "done": False}
        )
        while True:
            msg = to_child.recv(timeout=600.0)
            kind = msg["type"]
            if kind == "window":
                for rec in msg["externals"]:
                    client.apply_external(rec)
                env.run_window(msg["end"], done)
                finished = done is not None and done.processed
                to_parent.send(
                    {
                        "type": "sync",
                        "peek": env.peek(),
                        "requests": client.drain_requests(),
                        "done": finished,
                    }
                )
            elif kind == "finish":
                to_parent.send({"type": "result", "value": client.result()})
                return
            elif kind == "abort":
                return
            else:  # pragma: no cover - protocol error
                raise RuntimeError(f"unknown frame {kind!r}")
    except BaseException:
        try:
            to_parent.send({"type": "error", "traceback": traceback.format_exc()})
        except Exception:  # pragma: no cover - ring already gone
            pass


def run_sharded_subprocesses(
    nshards: int,
    window: float,
    build_client,
    fabric,
    ring_bytes: int = 1 << 20,
) -> Dict[int, Any]:
    """Fork one OS process per shard and run the window protocol.

    ``build_client(shard_id, nshards)`` runs *in the child* (fork
    start method, so closures travel for free) and returns an object
    with ``env``/``done``/``apply_external``/``drain_requests``/
    ``result`` — see :class:`repro.bgq.shardnet.ShardClient`.
    ``fabric`` runs in the parent and must provide
    ``process(wire_requests) -> (externals_by_shard, min_arrival)``.
    Returns ``{shard_id: result}``.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    to_child = [ShmRing(ring_bytes) for _ in range(nshards)]
    to_parent = [ShmRing(ring_bytes) for _ in range(nshards)]
    procs = []
    clean = False
    try:
        for i in range(nshards):
            pr = ctx.Process(
                target=_shard_worker,
                args=(i, nshards, build_client, to_child[i], to_parent[i]),
                name=f"shard {i} child",
                daemon=True,
            )
            pr.start()
            procs.append(pr)

        def read_sync(i: int) -> dict:
            msg = to_parent[i].recv(timeout=600.0, peer=procs[i])
            if msg["type"] == "error":
                raise RuntimeError(
                    f"shard {i} failed:\n{msg['traceback']}"
                )
            return msg

        peeks: List[float] = []
        finished = False
        for i in range(nshards):
            sync = read_sync(i)
            peeks.append(sync["peek"])
            finished = finished or sync["done"]
        externals_by_shard: Dict[int, list] = {}

        while not finished:
            m = min(peeks)
            if m == _INF:
                raise ShardStallError(
                    "sharded subprocess run stalled: all shards idle with no "
                    "in-flight traffic (see docs/SCALING.md)"
                )
            end = m + window
            for i in range(nshards):
                to_child[i].send(
                    {
                        "type": "window",
                        "end": end,
                        "externals": externals_by_shard.pop(i, []),
                    }
                )
            requests: list = []
            for i in range(nshards):
                sync = read_sync(i)
                peeks[i] = sync["peek"]
                requests.extend(sync["requests"])
                finished = finished or sync["done"]
            externals_by_shard, arrivals = fabric.process(requests)
            for shard_id, recs in externals_by_shard.items():
                first = min(arrivals[shard_id]) if arrivals.get(shard_id) else _INF
                if first < peeks[shard_id]:
                    peeks[shard_id] = first

        results: Dict[int, Any] = {}
        for i in range(nshards):
            to_child[i].send({"type": "finish"})
        for i in range(nshards):
            msg = read_sync(i)
            if msg["type"] != "result":  # pragma: no cover - protocol error
                raise RuntimeError(f"expected result frame, got {msg['type']!r}")
            results[i] = msg["value"]
        clean = True
        return results
    finally:
        for pr in procs:
            # After a failure, survivors wait for frames that never come.
            pr.join(timeout=5.0 if clean else 0.0)
            if pr.is_alive():
                pr.terminate()
        for ring in to_child + to_parent:
            ring.close()
