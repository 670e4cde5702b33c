"""Lockless producer-consumer queues over L2 atomics (§III-A, Fig. 2).

Two queue flavours, matching the paper's comparison:

* :class:`MutexQueue` — the "typical" implementation: a deque guarded by
  a pthread mutex.  The mutex becomes a bottleneck when several peers
  simultaneously send to the same rank.

* :class:`L2AtomicQueue` — the paper's Charm++ queue.  A fixed vector of
  message-pointer slots plus a pair of adjacent L2 counters: the
  *producer counter* and the *bound*.  A producer performs one bounded
  load-increment; the returned old value modulo the queue size is its
  slot.  The consumer dequeues and then advances the bound, re-enabling
  producers.  When the bounded increment fails (queue full) producers
  fall back to a mutex-protected *overflow queue*.  Because Charm++ has
  **no message-ordering requirement** — unlike PAMI's MPI variant, which
  must lock and check the overflow queue on every dequeue (§III-A) —
  the consumer only touches the overflow queue when the L2 queue is
  empty, so the overflow mutex is off the fast path entirely.

All operations are generator-style and charge both the L2 atomic
latencies (via the :class:`~repro.bgq.l2.L2AtomicUnit`) and the software
instruction counts (via the calling :class:`~repro.bgq.node.HWThread`),
so contention *emerges* in the simulation rather than being assumed.

Provenance: §III-A and Fig. 2 of the paper (the L2 queue design and the
Charm++-vs-MPI ordering contrast); the Fig. 8 ablation flips these
queues off.  Every queue keeps native ``enqueues``/``dequeues``
statistics (and the per-node L2 unit counts its atomic ops); when
tracing is enabled the Converse runtime snapshots them into the
``queue.*`` / ``l2.atomic_ops`` counters of the global
:class:`repro.trace.Tracer` at the end of the run (docs/TRACING.md).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from .bgq.l2 import BOUNDED_INCREMENT_FAILED, L2AtomicUnit
from .bgq.node import HWThread
from .bgq.params import BGQParams, DEFAULT_PARAMS
from .bgq.wakeup import WakeupSource
from .sim import Environment, Mutex

__all__ = ["MutexQueue", "L2AtomicQueue"]

#: Small fixed software cost (instructions) around each queue operation
#: (pointer write, index arithmetic).
_SLOT_INSTR = 12.0


class _QueueBase:
    """Common bookkeeping: stats + consumer wakeup source."""

    def __init__(self, env: Environment, name: str, params: BGQParams) -> None:
        self.env = env
        self.name = name
        self.params = params
        self.enqueues = 0
        self.dequeues = 0
        self.overflow_enqueues = 0
        #: Signalled on every enqueue so consumers (comm threads, idle
        #: worker threads) can sleep/poll on it.
        self.wakeup = WakeupSource(env, name=f"{name}-wakeup", params=params)

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def has_ready(self) -> bool:
        """Could :meth:`dequeue` deliver an item or charge work *now*?

        Consumers (the Converse scheduler loop, ``PamiContext.advance``)
        use this to skip spawning a dequeue generator when the call
        would provably return ``None`` without simulating any events —
        a pure host-side saving with zero effect on the simulated
        trajectory.  The base implementation is conservatively ``True``:
        a :class:`MutexQueue` dequeue pays the mutex acquire even when
        empty, so it must always actually run.
        """
        return True


class MutexQueue(_QueueBase):
    """Baseline: deque + pthread mutex (what the paper replaces)."""

    def __init__(
        self,
        env: Environment,
        name: str = "mutexq",
        params: BGQParams = DEFAULT_PARAMS,
    ) -> None:
        super().__init__(env, name, params)
        self._items: Deque[Any] = deque()
        self.lock = Mutex(env, name=f"{name}-lock")

    def __len__(self) -> int:
        return len(self._items)

    def enqueue(self, thread: HWThread, item: Any):
        p = self.params
        yield from thread.compute(p.mutex_acquire_instr)
        yield from self.lock.acquire()
        yield from thread.compute(_SLOT_INSTR)
        self._items.append(item)
        yield from thread.compute(p.mutex_release_instr)
        self.lock.release()
        self.enqueues += 1
        self.wakeup.signal()

    def dequeue(self, thread: HWThread):
        """Non-blocking; returns an item or None."""
        p = self.params
        yield from thread.compute(p.mutex_acquire_instr)
        yield from self.lock.acquire()
        item = self._items.popleft() if self._items else None
        yield from thread.compute(p.mutex_release_instr)
        self.lock.release()
        if item is not None:
            self.dequeues += 1
        return item


class L2AtomicQueue(_QueueBase):
    """The paper's lockless queue (single consumer, many producers)."""

    def __init__(
        self,
        env: Environment,
        l2: L2AtomicUnit,
        size: int = 1024,
        name: Optional[str] = None,
        params: BGQParams = DEFAULT_PARAMS,
    ) -> None:
        if size < 1:
            raise ValueError("queue size must be >= 1")
        # Anonymous names come from the owning L2 unit's counter, so
        # they are stable per-environment regardless of what other
        # simulations ran earlier in this process.
        name = name or f"l2q{next(l2.anon_queue_ids)}"
        super().__init__(env, name, params)
        self.l2 = l2
        self.size = size
        #: Producer counter with adjacent bound word (Fig. 2): the bound
        #: starts at `size` — the counter may be incremented up to it.
        self.counter = l2.allocate(f"{name}-prod", value=0, bound=size)
        self.slots: List[Any] = [None] * size
        self._consumed = 0  # consumer-private dequeue count (no atomics)
        self.overflow: Deque[Any] = deque()
        self.overflow_lock = Mutex(env, name=f"{name}-overflow-lock")

    def __len__(self) -> int:
        return (self.l2.peek(self.counter) - self._consumed) + len(self.overflow)

    # -- producer side ---------------------------------------------------
    def enqueue(self, thread: HWThread, item: Any):
        p = self.params
        got = yield from self.l2.load_increment_bounded(self.counter)
        if got is BOUNDED_INCREMENT_FAILED:
            # Queue full: take the overflow path (mutex-protected).
            yield from thread.compute(p.mutex_acquire_instr)
            yield from self.overflow_lock.acquire()
            yield from thread.compute(_SLOT_INSTR)
            self.overflow.append(item)
            yield from thread.compute(p.mutex_release_instr)
            self.overflow_lock.release()
            self.overflow_enqueues += 1
        else:
            yield from thread.compute(_SLOT_INSTR)
            self.slots[got % self.size] = item
        self.enqueues += 1
        self.wakeup.signal()

    # -- consumer side (single consumer by construction) -------------------
    def _l2_nonempty(self) -> bool:
        return self.l2.peek(self.counter) > self._consumed

    def has_ready(self) -> bool:
        """Mirror of :meth:`dequeue`'s progress test, without side effects."""
        if self.l2.peek(self.counter) > self._consumed:
            if self.slots[self._consumed % self.size] is not None:
                return True
            # Head slot in-flight: deliverable only via the overflow path.
        return bool(self.overflow)

    def dequeue(self, thread: HWThread):
        """Non-blocking dequeue; returns an item or None.

        Charm++ semantics: the overflow queue is only examined when the
        L2 atomic queue cannot deliver (no ordering requirement),
        keeping the mutex off the fast path.
        """
        p = self.params
        if self._l2_nonempty():
            slot = self._consumed % self.size
            item = self.slots[slot]
            if item is not None:
                self.slots[slot] = None
                self._consumed += 1
                yield from thread.compute(_SLOT_INSTR)
                # Re-enable one producer slot: advance the bound.
                yield from self.l2.store_add_bound(self.counter, 1)
                self.dequeues += 1
                return item
            # Producer won the increment but has not written the pointer
            # yet.  Fall through to the overflow queue: Charm++ has no
            # ordering requirement, so messages parked there are still
            # deliverable — one stalled producer must not starve them.
        if self.overflow:
            yield from thread.compute(p.mutex_acquire_instr)
            yield from self.overflow_lock.acquire()
            item = self.overflow.popleft() if self.overflow else None
            yield from thread.compute(p.mutex_release_instr)
            self.overflow_lock.release()
            if item is not None:
                self.dequeues += 1
            return item
        return None
