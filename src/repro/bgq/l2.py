"""BG/Q L2-cache atomic operations (§II "Scalable Atomic support in L2").

The L2 cache on BG/Q embeds integer adders that implement atomic
operations on 64-bit words *in the cache* — load-increment, store-add,
store-or, store-xor — with far lower overhead than a mutex and the
ability to service many concurrent requests (one adder per L2 slice).

The operation the paper's lockless queues rely on is the **bounded
load-increment**: a load from a counter's special address atomically
increments the counter and returns its old value, *unless* the counter
has reached the bound stored in the adjacent memory location, in which
case the increment fails and a failure code is returned.

Modelled are the two operations the lockless queue
(:class:`repro.queues.L2AtomicQueue`) drives, each charged one L2
round trip: :meth:`L2AtomicUnit.load_increment_bounded` (producer slot
claim) and :meth:`L2AtomicUnit.store_add_bound` (consumer bound
advance), plus the zero-latency :meth:`L2AtomicUnit.peek` used for
model bookkeeping.  The other hardware ops (plain load, unbounded
load-increment, store, store-add/or/xor) have no caller in the
runtime and are not modelled.  Their semantics are exact.  Atomicity is inherited
from the discrete-event engine: the read-modify-write happens inside a
single event callback, after the fixed ``l2_atomic_latency`` delay, so
concurrent requests serialize in deterministic schedule order just as
the L2 slice serializes them in hardware.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from ..sim import Environment
from .params import BGQParams, DEFAULT_PARAMS

__all__ = ["L2AtomicUnit", "L2Counter", "BOUNDED_INCREMENT_FAILED"]

#: Failure sentinel returned by a bounded increment that hit the bound.
#: (Hardware returns all-ones; a distinct object is clearer in Python.)
BOUNDED_INCREMENT_FAILED = object()


@dataclass
class L2Counter:
    """A 64-bit word in L2 with an optional adjacent bound word."""

    name: str
    value: int = 0
    bound: Optional[int] = None  # None = unbounded counter


class L2AtomicUnit:
    """The set of L2 atomic counters of one BG/Q node.

    Atomic ops are generator-style:
    ``old = yield from l2.load_increment_bounded(c)``.  :meth:`peek`
    reads a value at zero latency, for model-internal bookkeeping that
    must not perturb simulated time.
    """

    def __init__(self, env: Environment, params: BGQParams = DEFAULT_PARAMS) -> None:
        self.env = env
        self.params = params
        self._counters: Dict[str, L2Counter] = {}
        self.op_count = 0
        # Native HPM-style stats (always on, harvested at finish() by
        # ConverseRuntime._flush_stats): per-op-type counts and
        # bounded-increment failures — the "queue full / queue empty"
        # events of §III-A.
        self.op_counts: Dict[str, int] = {}
        self.bounded_failed = 0
        #: Source for auto-generated queue names (L2AtomicQueue with no
        #: explicit name).  Per-unit, not a module global: names only
        #: need to be unique within one unit's counter namespace, and a
        #: global counter would make names depend on how many unrelated
        #: environments ran earlier in the process (sharded SPMD runs
        #: build several in one interpreter).
        self.anon_queue_ids = itertools.count()

    # -- allocation ----------------------------------------------------
    def allocate(self, name: str, value: int = 0, bound: Optional[int] = None) -> L2Counter:
        if name in self._counters:
            raise ValueError(f"L2 counter {name!r} already allocated")
        c = L2Counter(name, value, bound)
        self._counters[name] = c
        return c

    def _latency(self, op: str):
        self.op_count += 1
        counts = self.op_counts
        counts[op] = counts.get(op, 0) + 1
        return self.env.timeout(self.params.l2_atomic_latency)

    # -- atomic operations ----------------------------------------------
    def load_increment_bounded(self, c: L2Counter):
        """Bounded load-increment (the lockless-queue primitive).

        Returns the old value, or :data:`BOUNDED_INCREMENT_FAILED` when
        ``c.value`` has reached ``c.bound``.
        """
        if c.bound is None:
            raise ValueError(f"counter {c.name!r} has no bound word")
        yield self._latency("load_increment_bounded")
        if c.value >= c.bound:
            self.bounded_failed += 1
            return BOUNDED_INCREMENT_FAILED
        old = c.value
        c.value += 1
        return old

    def store_add_bound(self, c: L2Counter, delta: int):
        """Atomically advance the *bound* word (consumer-side dequeue)."""
        if c.bound is None:
            raise ValueError(f"counter {c.name!r} has no bound word")
        yield self._latency("store_add_bound")
        c.bound += delta

    # -- zero-latency peek (model bookkeeping only) ----------------------
    def peek(self, c: L2Counter) -> int:
        return c.value
