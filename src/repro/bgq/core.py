"""A2 core model: 4-way SMT with shared issue resources (§II).

The A2 core runs four hardware threads.  Each thread can issue at most
one instruction per cycle; the core can issue two per cycle in aggregate
(one fixed-point + one floating-point), so "to fully saturate the core's
resources, at least two threads per core must be used" [paper].  Because
the core is in-order, a single thread sustains well below 1 IPC (load-use
stalls); co-resident threads hide each other's stalls but contend for the
tiny shared 16 KB L1.  The paper measured a 2.3x speedup for 4 threads
vs 1 on a core in the NAMD kernel, and the model is calibrated to that.

The model is *weighted processor sharing*:

* every activity on a core registers as a member with a weight —
  ``1.0`` for real computation or a naive spin loop, ``~1/60`` for the
  optimized idle poll that stalls on an L2 atomic load (§III-D), ``0``
  for a thread in the ``wait`` state (consumes nothing [paper §II]);
* with effective weighted occupancy ``n_eff = sum(w_i)``, per-unit-weight
  throughput is ``base_ipc / (1 + (n_eff - 1) * smt_interference)``;
* a member's rate is additionally capped by the per-thread issue limit
  and the core's aggregate issue width.

Rates are recomputed whenever membership changes, so an idle thread
entering its poll loop immediately speeds up its neighbours: the core
owns its computes' chunks, and one zero-delay pop per change re-keys
the running ones in arm order.  A chunk end enters the heap only once
it is the earliest, and a process resumes once, when its work is done
(docs/ARCHITECTURE.md, "Charging without wrapper frames").  The unit
rate is memoised per membership in the formula's own float-op order,
so every rate is bit-identical to the plain formula.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ..sim import Environment, Event, SimulationError, Ticket
from ..sim.engine import _PENDING
from .params import BGQParams, DEFAULT_PARAMS

__all__ = ["Core", "CoreMember"]

_EPS = 1e-9
_INF = float("inf")
_MEMO_CAP = 64
_new_chunk = object.__new__


class CoreMember:
    """One registered occupant (idle spinner, busy-wait) of a core."""

    __slots__ = ("id", "weight")

    def __init__(self, member_id: int, weight: float) -> None:
        self.id = member_id
        self.weight = weight


class _Chunk(Event):
    """A running compute: its own unit-weight core member (``id``) and
    the event its process waits on.  ``left`` instructions at ``rate``
    since ``t0`` end at ``(at, seq)`` (``at`` None once off the core),
    on a :class:`Ticket` only while pushed; ``gen``'s change pop re-keys
    it next."""

    __slots__ = ("id", "left", "t0", "rate", "at", "seq", "ticket", "gen")


class Core:
    """One A2 core: a weighted-processor-sharing issue resource."""

    def __init__(
        self,
        env: Environment,
        core_id: int = 0,
        params: BGQParams = DEFAULT_PARAMS,
    ) -> None:
        self.env = env
        self.core_id = core_id
        self.params = params
        # Member ids are per-core (not a class-level counter): ids only
        # key this core's membership dict, and a shared counter would
        # leak state between concurrent environments in one process.
        self._ids = itertools.count()
        #: Member id -> weight, in registration order.
        self._members: Dict[int, float] = {}
        #: Chunks armed since the last scheduled change, in arm order.
        self._attached: List[_Chunk] = []
        #: Every compute on the core, in start order.
        self._running: List[_Chunk] = []
        #: Change pops scheduled and not yet popped (all at ``now``).
        self._pending = 0
        # Shared by this core's change events and tickets (nothing else
        # can reach those events to add callbacks).
        self._rekey_cbs = [self._rekey]
        self._expire_cbs = [self._expire]
        #: The unit-weight rate for the current membership, or None.
        self._rate: Optional[float] = None
        #: :meth:`_unit_rate` by membership weights (at most _MEMO_CAP).
        self._memo: Dict[Tuple[float, ...], float] = {}
        self.instructions_retired = 0.0

    # -- membership -----------------------------------------------------
    def register(self, weight: float = 1.0) -> CoreMember:
        """Add an occupant (idle spinner, busy-wait) with given weight."""
        if not 0 <= weight < _INF:
            raise ValueError(f"member weight must be finite and >= 0, got {weight!r}")
        m = CoreMember(next(self._ids), weight)
        self._members[m.id] = weight
        self._notify_change()
        return m

    def unregister(self, member: CoreMember) -> None:
        if self._members.pop(member.id, None) is not None:
            self._notify_change()

    def _notify_change(self) -> None:
        self._rate = None
        attached = self._attached
        if attached:  # some chunk still runs at the old rates
            self._attached = []
            self._pending += 1
            ev = Event(self.env)
            ev.callbacks = self._rekey_cbs
            ev.succeed(attached)

    # -- rate model -------------------------------------------------------
    def _unit_rate(self) -> float:
        """Instructions/cycle a unit-weight member receives, memoised by
        the weights in member order (the formula's summation order)."""
        key = tuple(self._members.values())
        rate = self._memo.get(key)
        if rate is None:
            p = self.params
            n_eff = sum(key)
            cap = p.thread_issue_cap
            per_unit = p.base_ipc / (1.0 + max(0.0, n_eff - 1.0) * p.smt_interference)
            # Aggregate issue-width cap, shared proportionally to weight;
            # below it the scale is exactly 1.0 (x * 1.0 == x).
            total = 0.0
            for mw in key:
                total += min(mw * per_unit, cap * min(1.0, mw))
            width = p.core_issue_width
            width_scale = width / total if total > width else 1.0
            if len(self._memo) >= _MEMO_CAP:
                self._memo.clear()
            rate = self._memo[key] = min(1.0 * per_unit, cap * min(1.0, 1.0)) * width_scale
        return rate

    # -- work execution --------------------------------------------------
    def compute(self, instructions: float):
        """Run ``instructions`` of work at unit weight; generator-style.

        Duration depends on who else occupies the core while the work
        runs; rates are re-evaluated at every membership change.  Must
        be driven by a :class:`~repro.sim.Process`, which resumes once,
        when the work is done.
        """
        if not 0 <= instructions < _INF:
            raise ValueError(f"instruction count must be finite and >= 0, got {instructions!r}")
        if instructions == 0:
            return 0.0
        env = self.env
        if env.active_process is None:
            raise SimulationError("Core.compute() must be yielded by a Process")
        # The chunk's Event slots are set here, not by a constructor call.
        chunk = _new_chunk(_Chunk)
        chunk.env = env
        chunk.callbacks = None
        chunk._value = None
        chunk._exc = None
        chunk._state = _PENDING
        chunk._defused = False
        chunk.id = cid = next(self._ids)
        chunk.left = left = float(instructions)
        chunk.at = None
        members = self._members
        members[cid] = 1.0
        self._rate = None
        if self._attached:
            self._notify_change()
        started = env.now
        # _arm inline, with the rate read from the fresh memo entry.
        if left > _EPS:
            rate = self._rate = self._unit_rate()
            at = started + left / rate
            if at != started:
                chunk.t0 = started
                chunk.rate = rate
                chunk.at = at
                chunk.seq = seq = env.reserve_seq()
                chunk.ticket = None
                attached = chunk.gen = self._attached
                attached.append(chunk)
                running = self._running
                alone = not running and not self._pending
                running.append(chunk)
                if alone:  # the only end, and no change pop to wait for
                    chunk.ticket = Ticket(env, at, seq, chunk, self._expire_cbs)
                else:
                    self._push_next(started)
                yield chunk
        del members[cid]
        self._rate = None
        if self._attached:
            self._notify_change()
        self.instructions_retired += instructions
        return env.now - started

    def _arm(self, c: _Chunk, now: float) -> bool:
        """Start ``c``'s next chunk at ``now``; False if its work is done
        (the residual test, the rate, the end, then the guard for a
        residual below the clock's resolution, in the chunk loop's order).
        The end's seq is reserved here; its ticket is made only if pushed."""
        left = c.left
        if left > _EPS:
            rate = self._rate
            if rate is None:
                rate = self._rate = self._unit_rate()
            at = now + left / rate
            if at != now:
                c.t0 = now
                c.rate = rate
                c.at = at
                c.seq = self.env.reserve_seq()
                c.ticket = None
                attached = c.gen = self._attached
                attached.append(c)
                return True
        return False

    def _finish(self, c: _Chunk) -> None:
        """Take a done compute off the core and resume its process here."""
        self._running.remove(c)
        c.at = c.ticket = c.gen = None
        cbs, c.callbacks = c.callbacks, None
        cbs[0](c)

    def _rekey(self, ev: Event) -> None:
        """A change pop: advance its chunks to now under the new rates."""
        now = self.env.now
        self._pending -= 1
        for c in ev.value:
            ticket = c.ticket
            if ticket is not None:
                ticket.cancel()  # the fresh end below replaces it
            c.left -= (now - c.t0) * c.rate
            if not self._arm(c, now):
                self._finish(c)
        self._push_next(now)

    def _expire(self, ticket: Ticket) -> None:
        """A chunk-end pop: finish the compute, or arm its residual."""
        c = ticket._value
        now = c.at
        running = self._running
        c.gen.remove(c)
        c.left -= (now - c.t0) * c.rate
        if not self._arm(c, now):
            # _finish inline.
            running.remove(c)
            c.at = c.ticket = c.gen = None
            cbs, c.callbacks = c.callbacks, None
            cbs[0](c)
        if running:
            self._push_next(now)

    def _push_next(self, now: float) -> None:
        """Push a ticket for the earliest chunk end, unless it has one.
        A pending change pop (at ``now``) calls this again, so meanwhile
        only an end due at ``now`` — keyed before that change — counts."""
        pending = self._pending
        best = None
        for c in self._running:
            at = c.at
            if pending and at > now:
                continue
            if best is None or at < best.at or (at == best.at and c.seq < best.seq):
                best = c
        if best is None:
            return
        if best.ticket is None:
            best.ticket = Ticket(self.env, best.at, best.seq, best, self._expire_cbs)
