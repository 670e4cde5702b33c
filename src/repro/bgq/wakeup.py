"""BG/Q wakeup unit (§II "Wakeup unit").

A hardware thread can execute the PowerPC ``wait`` instruction and stop
consuming core resources entirely.  The wakeup unit can be programmed to
watch a range of memory addresses or network activity (packet arrivals
in an MU reception FIFO) and deliver a low-overhead interrupt that
resumes a waiting thread.  PAMI communication threads use exactly this
mechanism: sleep when there is no messaging work, wake within ~100 ns of
a packet arrival or a work-queue post.

:class:`WakeupSource` models one programmable watch condition.  It
doubles as the generic "condition became true" notification for
*spinning* pollers (the Converse idle poll loop watches its message
queue's producer counter the same way — only the detection latency and
the core occupancy while waiting differ), hence the ``latency``
override on :meth:`arm`.

The classic lost-wakeup race (work arrives between the last poll and
the ``wait``) is handled the way the hardware handles it: a signal with
no armed waiter leaves the condition latched, and the next ``arm``
fires immediately.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..sim import Environment, Event, Timeout
from .params import BGQParams, DEFAULT_PARAMS

__all__ = ["WakeupSource"]


class WakeupSource:
    """One watch condition (memory range, MU FIFO, or queue counter)."""

    def __init__(
        self,
        env: Environment,
        name: str = "wakeup",
        params: BGQParams = DEFAULT_PARAMS,
    ) -> None:
        self.env = env
        self.name = name
        self.params = params
        self._armed: List[Tuple[Event, Optional[float]]] = []
        self._latched = False
        self.signals = 0
        self.wakeups = 0
        #: Times an arm() found the condition already latched (the
        #: lost-wakeup race the latch exists for) — an HPM counter.
        self.latched_fires = 0
        # Shared by every delivery hop of this source (nothing else can
        # reach those events to add callbacks).
        self._start_cbs = [self._start]
        self._deliver_cbs = [self._deliver]

    def arm(self, latency: Optional[float] = None) -> Event:
        """Arm the watch; returns the event the waiter should yield on.

        ``latency`` overrides the delivery delay: the default is the
        wakeup unit's interrupt latency (for a thread in the ``wait``
        state); a spinning poller watching the same condition passes its
        poll-detection latency instead (e.g. one L2 load, ~60 cycles).

        If the condition was signalled while unarmed (latched), the
        event fires after just the delivery delay — the waiter never
        sleeps through a wakeup.
        """
        ev = self.env.event()
        if self._latched:
            self._latched = False
            self.latched_fires += 1
            self._fire(ev, latency)
        else:
            self._armed.append((ev, latency))
        return ev

    def disarm(self, ev: Event) -> bool:
        """Cancel an armed watch (waiter found work before sleeping)."""
        for i, (armed_ev, _) in enumerate(self._armed):
            if armed_ev is ev:
                del self._armed[i]
                return True
        return False

    def signal(self) -> None:
        """The watched condition occurred (packet arrival, queue post)."""
        self.signals += 1
        if self._armed:
            waiters, self._armed = self._armed, []
            for ev, latency in waiters:
                self._fire(ev, latency)
        else:
            self._latched = True

    def clear(self) -> None:
        """Drop a latched signal (waiter consumed the condition itself)."""
        self._latched = False

    def _fire(self, ev: Event, latency: Optional[float]) -> None:
        # Delivery is a plain event/timeout chain rather than a spawned
        # Process: a zero-delay trampoline event stands in for the old
        # delivery process's init event, and its pop creates the delay
        # timeout — so the timeout's schedule position (and with it the
        # whole event order) is identical to the Process version, minus
        # the Process/generator machinery.  Both hops carry their state
        # in the event value and share this source's callback lists.
        self.wakeups += 1
        delay = self.params.wakeup_latency if latency is None else latency
        tramp = Event(self.env)
        tramp.callbacks = self._start_cbs
        tramp.succeed((ev, delay))

    def _start(self, tramp: Event) -> None:
        ev, delay = tramp._value
        Timeout(self.env, delay, ev).callbacks = self._deliver_cbs

    def _deliver(self, timeout: Event) -> None:
        timeout._value.succeed()
