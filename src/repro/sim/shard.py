"""Conservative parallel DES: shard-local environments in lockstep.

The single-process :class:`~repro.sim.Environment` tops out around
O(32) simulated BG/Q nodes; this module is the engine side of the
sharded torus (docs/SCALING.md).  The simulated machine is partitioned
into *shards*, each with its own event queue and clock, and a
:class:`ShardCoordinator` advances all shards through a sequence of
half-open time windows::

    window = [T, T + W)   with   W = fabric.window <= lookahead

where the *lookahead* is the minimum simulated delay of any cross-shard
interaction (for the BG/Q torus: NIC injection latency — every packet
spends at least ``nic_latency + hop_latency`` cycles before touching
another node, see :mod:`repro.bgq.shardnet`).  The fabric owns the
window, so it cannot be set above its own lookahead.  Within a window
shards execute independently; cross-shard sends are buffered and
exchanged at the window barrier, where they are scheduled as *external
events* in the destination shard — always in that shard's future,
because the window never outruns the lookahead.  This is classic
conservative (Chandy–Misra–Bryant-style) synchronization, with the
barrier playing the role of null messages.

Determinism
-----------
The serial engine orders same-time events by an integer schedule
sequence number.  Across shards there is no shared counter, so sharded
runs order events by a :class:`_SeqKey` ``(alloc_time, shard, counter)``
tuple instead: within one shard this collapses to allocation order
(the serial order — allocation times are monotonic), and across shards
it is a deterministic total order independent of host scheduling.  The
key type plugs into the engine's hot path *unmodified*: the engine
allocates sequence numbers with ``env._seq = env._seq + 1``, so a
``_SeqKey`` held in ``_seq`` mints its successor via ``__add__``.

Transports
----------
One window protocol, two pumps.  :meth:`ShardCoordinator.advance_window`
is the only window loop and the fabric's ``flush`` the only barrier
exchange.  In process (`inproc`) the coordinator drives the
:class:`ShardEnvironment` objects themselves.
:func:`run_sharded_subprocesses` (`mp`) forks one OS process per shard
and hands the same coordinator and fabric one parent-side proxy per
child, which turns ``run_window`` into a window frame and ``peek`` into
a read of the child's sync frame over shared-memory SPSC rings
(:class:`ShmRing`); payloads must then be picklable.  Both transports
execute the identical protocol, so they produce identical trajectories.
"""

from __future__ import annotations

import heapq
import pickle
import struct
import time
import traceback
from typing import Any, Callable, Dict, Optional, Sequence

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


class _SeqKey(tuple):
    """Deterministic total order for same-time events across shards.

    The tuple ``(t, origin, n, env)``: allocation time, the allocating
    shard id, that shard's allocation counter, and a back-reference to
    the owning :class:`ShardEnvironment`.  Heap compares run in C and
    never reach ``env``: ``(t, origin, n)`` is unique per key, because
    minted keys have ``origin < nshards`` and the fabric's keys (``env``
    None, never incremented) have ``origin >= nshards``.  The engine's
    ``env._seq = env._seq + 1`` pattern mints successors via
    :meth:`__add__`, reading the clock and counter through ``env``.
    """

    __slots__ = ()

    def __add__(self, _other) -> "_SeqKey":
        # Only the engine's `_seq + 1` reaches this, once per scheduled
        # event; it reads the clock and schedules nothing itself.
        env = self[3]
        env._key_counter = n = env._key_counter + 1
        return _SeqKey((env.now, env.shard_id, n, env))


class ShardEnvironment(Environment):
    """An :class:`Environment` that is one shard of a partitioned run.

    Identical hot path; the only differences are (a) schedule sequence
    numbers are :class:`_SeqKey` tuples so same-time ordering is
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
        self._seq = _SeqKey((self.now, self.shard_id, 0, self))

    def schedule_external(self, when: float, key: _SeqKey, callback: Callable[[Event], None]) -> None:
        """Schedule ``callback(event)`` at ``when`` under a pre-allocated key.

        Bypasses :meth:`Event.succeed` (which would mint a fresh key at
        the *current* time): the event enters the heap already
        triggered, carrying the ordering key allocated when the
        originating send happened.  ``when`` must be in this shard's
        future — guaranteed by the lookahead bound, asserted here
        because violating it silently would corrupt causality.
        """
        if when < self.now:
            raise SimulationError(
                f"external event at t={when} is in shard {self.shard_id}'s "
                f"past (now={self.now}): lookahead/window mismatch"
            )
        ev = Event(self)
        ev._state = _TRIGGERED
        ev.callbacks = [callback]
        heapq.heappush(self._queue, (when, key, ev))


class ShardCoordinator:
    """Lockstep window driver, for both transports.

    ``shards`` are :class:`ShardEnvironment` objects in process, or the
    per-child proxies of :func:`run_sharded_subprocesses`; either way
    each provides ``peek()``, ``run_window(end, done)``, ``now``,
    ``events_executed`` and ``shard_id``.  ``fabric`` is the cross-shard
    exchange (for the BG/Q torus:
    :class:`repro.bgq.shardnet.ReservationFabric`); it provides
    ``window`` (at most its lookahead), ``flush() -> int`` (exchange
    buffered sends, return how many) and ``pending() -> int`` (sends
    buffered but not yet flushed).
    """

    def __init__(self, shards: Sequence[Any], fabric) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        if not fabric.window > 0:
            raise ValueError(f"window must be positive, got {fabric.window}")
        self.shards = list(shards)
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
        self.fabric.flush()
        m = min(env.peek() for env in self.shards)
        if m == _INF:
            raise ShardStallError(self._stall_report(done))
        end = m + self.fabric.window
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
    """Child main loop: build the shard, then sync after every window.

    ``build_client(shard_id, nshards)`` returns the shard's fabric
    adapter (:class:`repro.bgq.shardnet.WireShardClient`): ``env``,
    ``done``, ``take_requests()``, ``apply(records)`` and ``result()``.
    """
    try:
        client = build_client(shard_id, nshards)
        env, done = client.env, client.done
        while True:
            to_parent.send(
                {
                    "type": "sync",
                    "peek": env.peek(),
                    "now": env.now,
                    "executed": env.events_executed,
                    "requests": client.take_requests(),
                    "done": done is not None and done.processed,
                }
            )
            msg = to_child.recv(timeout=600.0)
            if msg["type"] == "finish":
                to_parent.send({"type": "result", "value": client.result()})
                return
            client.apply(msg["records"])
            env.run_window(msg["end"], done)
    except BaseException:
        try:
            to_parent.send({"type": "error", "traceback": traceback.format_exc()})
        except Exception:  # pragma: no cover - ring already gone
            pass


class _ChildShard:
    """Parent-side proxy for one forked shard.

    To the coordinator it is the shard's environment: ``run_window``
    sends a window frame and returns at once, so every child runs the
    window concurrently, and ``peek``/``now``/``events_executed`` read
    the child's next sync frame.  To the fabric it is the shard's
    client: ``take_requests`` hands over the sync frame's requests and
    ``apply`` holds records for the next window frame.
    """

    def __init__(self, ctx, shard_id: int, nshards: int, build_client) -> None:
        self.shard_id = shard_id
        self.to_child = ShmRing()
        self.to_parent = ShmRing()
        self.proc = ctx.Process(
            target=_shard_worker,
            args=(shard_id, nshards, build_client, self.to_child, self.to_parent),
            name=f"shard {shard_id} child",
            daemon=True,
        )
        self._sync: Optional[dict] = None
        self._records: list = []
        self._first_arrival = _INF
        self.proc.start()

    def recv(self) -> dict:
        msg = self.to_parent.recv(timeout=600.0, peer=self.proc)
        if msg["type"] == "error":
            raise RuntimeError(f"shard {self.shard_id} failed:\n{msg['traceback']}")
        return msg

    def synced(self) -> dict:
        """The child's sync frame for the last window (read once)."""
        if self._sync is None:
            self._sync = self.recv()
        return self._sync

    @property
    def now(self) -> float:
        return self.synced()["now"]

    @property
    def events_executed(self) -> int:
        return self.synced()["executed"]

    def peek(self) -> float:
        return min(self.synced()["peek"], self._first_arrival)

    def pending(self) -> int:
        return len(self.synced()["requests"])

    def take_requests(self) -> list:
        sync = self.synced()
        requests, sync["requests"] = sync["requests"], []
        return requests

    def apply(self, records: list) -> None:
        self._records += records
        self._first_arrival = min(self._first_arrival, *(r[1] for r in records))

    def run_window(self, end: float, _done) -> None:
        self.synced()
        self.to_child.send({"type": "window", "end": end, "records": self._records})
        self._sync, self._records, self._first_arrival = None, [], _INF


class _ChildDone:
    """The root child's ``done`` event, as the coordinator sees it."""

    value = None

    def __init__(self, env: _ChildShard) -> None:
        self.env = env

    @property
    def processed(self) -> bool:
        return self.env.synced()["done"]

    def __repr__(self) -> str:
        return f"<done event of shard {self.env.shard_id}>"


def run_sharded_subprocesses(nshards: int, build_client, fabric) -> Dict[int, Any]:
    """Fork one OS process per shard and run the window protocol.

    ``build_client(shard_id, nshards)`` runs *in the child* (fork
    start method, so closures travel for free); see
    :func:`_shard_worker`.  ``fabric`` runs in the parent, where
    :meth:`ShardCoordinator.advance_window` drives it exactly as in
    process, over one :class:`_ChildShard` per child; shard 0 owns
    ``done``.  Returns ``{shard_id: result}``.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    children: list = []
    clean = False
    try:
        for i in range(nshards):
            children.append(_ChildShard(ctx, i, nshards, build_client))
            fabric.register_shard(i, children[i])
        ShardCoordinator(children, fabric).run(_ChildDone(children[0]))
        for child in children:
            child.synced()
            child.to_child.send({"type": "finish"})
        results = {child.shard_id: child.recv()["value"] for child in children}
        clean = True
        return results
    finally:
        for child in children:
            # After a failure, survivors wait for frames that never come.
            child.proc.join(timeout=5.0 if clean else 0.0)
            if child.proc.is_alive():
                child.proc.terminate()
            child.to_child.close()
            child.to_parent.close()
