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
entering its poll loop immediately speeds up its neighbours.  The
membership sums are cached between changes, in the formula's own
float-op order, so every rate is bit-identical to the plain formula.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from ..sim import Environment, Event, TimeoutOr
from .params import BGQParams, DEFAULT_PARAMS

__all__ = ["Core", "CoreMember"]

_EPS = 1e-9


class CoreMember:
    """One registered activity (compute job or occupant) on a core."""

    __slots__ = ("id", "weight")

    def __init__(self, member_id: int, weight: float) -> None:
        self.id = member_id
        self.weight = weight


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
        self._change: Event = env.event()
        #: :meth:`rate_of`'s ``(per_unit, cap, width_scale)``, or None.
        self._rates: Optional[Tuple[float, float, float]] = None
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
        old = self._change
        if old.callbacks:  # a change nobody waits on schedules nothing
            self._change = Event(self.env)
            old.succeed()

    # -- rate model -------------------------------------------------------
    def rate_of(self, member: CoreMember) -> float:
        """Instructions/cycle this member currently receives."""
        w = member.weight
        if w <= 0:
            return 0.0
        rates = self._rates
        if rates is None:
            p = self.params
            members = self._members.values()
            n_eff = sum(m.weight for m in members)
            cap = p.thread_issue_cap
            per_unit = p.base_ipc / (1.0 + max(0.0, n_eff - 1.0) * p.smt_interference)
            # Aggregate issue-width cap, shared proportionally to weight;
            # below it the scale is exactly 1.0 (x * 1.0 == x).
            total = 0.0
            for m in members:
                mw = m.weight
                total += min(mw * per_unit, cap * min(1.0, mw))
            width = p.core_issue_width
            rates = self._rates = (per_unit, cap, width / total if total > width else 1.0)
        per_unit, cap, width_scale = rates
        return min(w * per_unit, cap * min(1.0, w)) * width_scale

    # -- work execution --------------------------------------------------
    def compute(self, instructions: float, weight: float = 1.0):
        """Run ``instructions`` of work; generator-style.

        Duration depends on who else occupies the core while the work
        runs; rates are re-evaluated at every membership change.  Must
        be driven by a :class:`~repro.sim.Process`.
        """
        if instructions < 0:
            raise ValueError("instruction count must be >= 0")
        if instructions == 0:
            return 0.0
        env = self.env
        member = self.register(weight)
        started = env.now
        remaining = float(instructions)
        rate_of = self.rate_of
        try:
            while remaining > _EPS:
                rate = rate_of(member)
                if rate <= 0:
                    # Weight zero: just wait for a membership change.
                    yield self._change
                    continue
                t_done = remaining / rate
                t0 = env.now
                if t0 + t_done == t0:
                    # Residual work below the clock's float resolution:
                    # it cannot advance simulated time — call it done
                    # (guards against a zero-advance spin).
                    break
                # The chunk ends at t_done or at the next membership
                # change, whichever pops first; nothing else is scheduled.
                yield TimeoutOr(env, t_done, self._change)
                remaining -= (env.now - t0) * rate
        finally:
            self.unregister(member)
        self.instructions_retired += instructions
        return env.now - started
