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
(docs/ARCHITECTURE.md, "Charging without wrapper frames").  Rate
inputs are memoised per membership in the formula's own float-op
order, so every rate is bit-identical to the plain formula.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from ..sim import Environment, Event, SimulationError, Ticket
from .params import BGQParams, DEFAULT_PARAMS

__all__ = ["Core", "CoreMember"]

_EPS = 1e-9
_MEMO_CAP = 64
_weight = attrgetter("weight")


class CoreMember:
    """One registered activity (compute job or occupant) on a core."""

    __slots__ = ("id", "weight")

    def __init__(self, member_id: int, weight: float) -> None:
        self.id = member_id
        self.weight = weight


class _Chunk(Event):
    """A running compute, and the event its process waits on: ``left``
    instructions at ``rate`` since ``t0``, ending at ticket ``key`` (None
    once off the core), re-keyed next by ``gen``'s change pop.  An
    Interrupt empties ``callbacks``; the core then skips the chunk."""

    __slots__ = ("member", "left", "t0", "rate", "key", "gen")


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
        self._members: Dict[int, CoreMember] = {}
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
        #: :meth:`rate_of`'s inputs for the current membership, or None.
        self._rates: Optional[Tuple[float, float, float, float]] = None
        #: :meth:`_rate_inputs` by membership weights (at most _MEMO_CAP).
        self._memo: Dict[Tuple[float, ...], Tuple[float, float, float, float]] = {}
        self.instructions_retired = 0.0

    # -- membership -----------------------------------------------------
    @property
    def occupancy(self) -> float:
        """Current effective weighted occupancy n_eff."""
        return sum(m.weight for m in self._members.values())

    @property
    def n_members(self) -> int:
        return len(self._members)

    def register(self, weight: float = 1.0) -> CoreMember:
        """Add an occupant (idle spinner, busy-wait) with given weight."""
        if weight < 0:
            raise ValueError("member weight must be >= 0")
        m = CoreMember(next(self._ids), weight)
        self._members[m.id] = m
        self._notify_change()
        return m

    def unregister(self, member: CoreMember) -> None:
        if self._members.pop(member.id, None) is not None:
            self._notify_change()

    def set_weight(self, member: CoreMember, weight: float) -> None:
        """Change an occupant's weight (e.g. idle poll -> wait state)."""
        if member.id not in self._members:
            raise KeyError("member not registered on this core")
        if member.weight != weight:
            member.weight = weight
            self._notify_change()

    def _notify_change(self) -> None:
        self._rates = None
        attached = self._attached
        for c in attached:
            if c.callbacks:  # some chunk still runs at the old rates
                self._attached = []
                self._pending += 1
                ev = Event(self.env)
                ev.callbacks = self._rekey_cbs
                ev.succeed(attached)
                return

    # -- rate model -------------------------------------------------------
    def rate_of(self, member: CoreMember) -> float:
        """Instructions/cycle this member currently receives."""
        w = member.weight
        if w <= 0:
            return 0.0
        rates = self._rates
        if rates is None:
            rates = self._rates = self._rate_inputs()
        if w == 1.0:
            return rates[3]
        per_unit, cap, width_scale, _ = rates
        return min(w * per_unit, cap * min(1.0, w)) * width_scale

    def _rate_inputs(self) -> Tuple[float, float, float, float]:
        """``(per_unit, cap, width_scale, unit-weight rate)``, memoised by
        the weights in member order (the formula's summation order)."""
        members = self._members.values()
        key = tuple(map(_weight, members))
        rates = self._memo.get(key)
        if rates is None:
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
            unit = min(1.0 * per_unit, cap * min(1.0, 1.0)) * width_scale
            if len(self._memo) >= _MEMO_CAP:
                self._memo.clear()
            rates = self._memo[key] = (per_unit, cap, width_scale, unit)
        return rates

    # -- work execution --------------------------------------------------
    def compute(self, instructions: float, weight: float = 1.0):
        """Run ``instructions`` of work; generator-style.

        Duration depends on who else occupies the core while the work
        runs; rates are re-evaluated at every membership change.  Must
        be driven by a :class:`~repro.sim.Process`, which resumes once,
        when the work is done.
        """
        if instructions < 0:
            raise ValueError("instruction count must be >= 0")
        if instructions == 0:
            return 0.0
        if weight <= 0:
            raise ValueError("a compute needs weight > 0: at 0 it never ends")
        env = self.env
        if env.active_process is None:
            raise SimulationError("Core.compute() must be yielded by a Process")
        member = self.register(weight)
        started = env.now
        chunk = _Chunk(env)
        chunk.member = member
        chunk.left = float(instructions)
        chunk.key = None
        try:
            if self._arm(chunk, started):
                self._running.append(chunk)
                self._push_next(started)
                yield chunk
        finally:
            if chunk.key is not None:  # an Interrupt ended the wait
                self._drop(chunk)
            self.unregister(member)
        self.instructions_retired += instructions
        return env.now - started

    def _arm(self, c: _Chunk, now: float) -> bool:
        """Start ``c``'s next chunk at ``now``; False if its work is done
        (the residual test, the rate, the end, then the guard for a
        residual below the clock's resolution, in the chunk loop's order)."""
        left = c.left
        if left > _EPS:
            rate = self.rate_of(c.member)
            at = now + left / rate
            if at != now:
                c.t0 = now
                c.rate = rate
                c.key = Ticket(self.env, at, c)
                attached = c.gen = self._attached
                attached.append(c)
                return True
        return False

    def _finish(self, c: _Chunk) -> None:
        """Take a done compute off the core and resume its process here."""
        self._running.remove(c)
        c.key = None
        cbs, c.callbacks = c.callbacks, None
        cbs[0](c)

    def _rekey(self, ev: Event) -> None:
        """A change pop: advance its chunks to now under the new rates."""
        now = self.env.now
        self._pending -= 1
        for c in ev.value:
            if not c.callbacks:
                continue  # interrupted: its process drops it
            key = c.key
            if key.callbacks is not None:
                key.cancel()  # the fresh key below replaces it
            c.left -= (now - c.t0) * c.rate
            if not self._arm(c, now):
                self._finish(c)
        self._push_next(now)

    def _expire(self, key: Ticket) -> None:
        """A chunk-end pop: finish the compute, or arm its residual."""
        c = key.value
        now = key.at
        if c.callbacks:
            c.gen.remove(c)
            c.left -= (now - c.t0) * c.rate
            if not self._arm(c, now):
                self._finish(c)
        else:  # interrupted: its process drops it when it wakes
            self._running.remove(c)
        self._push_next(now)

    def _drop(self, c: _Chunk) -> None:
        """Take an interrupted compute off the core.  A change pop pushes
        the next end: the one the unregister that follows schedules, or
        one already pending."""
        c.key.cancel()
        for chunks in (self._running, c.gen):
            if c in chunks:
                chunks.remove(c)

    def _push_next(self, now: float) -> None:
        """Put the earliest chunk end on the heap, unless it is there.
        A pending change pop (at ``now``) calls this again, so meanwhile
        only an end due at ``now`` — keyed before that change — counts."""
        pending = self._pending
        best = None
        for c in self._running:
            key = c.key
            if pending and key.at > now:
                continue
            if best is None or key.at < best.at or (key.at == best.at and key.seq < best.seq):
                best = key
        if best is not None and best.callbacks is None:
            best.schedule(self._expire_cbs)
