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
argument of :func:`arm_any`.

A waiting thread arms all its sources at once: :func:`arm_any` returns
one event, and the first delivery succeeds it — one wake per waiting
thread, with no per-source event and no ``AnyOf``.  A signal to a
waiter whose delivery is already under way still counts in
``wakeups`` (the hardware raised the interrupt), but schedules nothing
and latches nothing.  The waiter leaves every source when it resumes,
so a later signal latches for the next arm.

The classic lost-wakeup race (work arrives between the last poll and
the ``wait``) is handled the way the hardware handles it: a signal with
no armed waiter leaves the condition latched, and the next arm fires
immediately.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..sim import Environment, Event, Timeout
from .params import BGQParams, DEFAULT_PARAMS

__all__ = ["WakeupSource", "arm_any"]


class _Waiter(Event):
    """The one event a thread waiting on ``sources`` yields.  ``fired``
    once a delivery (``delay`` after its signal) is under way."""

    __slots__ = ("sources", "delay", "fired")


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
        #: Waiters armed on this source, in arm order.
        self._armed: List[_Waiter] = []
        self._latched = False
        self.signals = 0
        self.wakeups = 0
        #: Times an arm found the condition already latched (the
        #: lost-wakeup race the latch exists for) — an HPM counter.
        self.latched_fires = 0
        # Shared by every delivery hop of this source (nothing else can
        # reach those events to add callbacks).
        self._start_cbs = [self._start]
        self._deliver_cbs = [self._deliver]

    def signal(self) -> None:
        """The watched condition occurred (packet arrival, queue post)."""
        self.signals += 1
        armed = self._armed
        if armed:
            self._armed = []
            for w in armed:
                self.wakeups += 1
                if not w.fired:
                    self._fire(w)
        else:
            self._latched = True

    def clear(self) -> None:
        """Drop a latched signal (waiter consumed the condition itself)."""
        self._latched = False

    def _fire(self, w: _Waiter) -> None:
        # Delivery is a plain event/timeout chain rather than a spawned
        # Process: a zero-delay trampoline event stands in for the old
        # delivery process's init event, and its pop creates the delay
        # timeout — so the timeout's schedule position (and with it the
        # whole event order) is identical to the Process version, minus
        # the Process/generator machinery.  Both hops carry the waiter in
        # the event value and share this source's callback lists.
        w.fired = True
        tramp = Event(self.env)
        tramp.callbacks = self._start_cbs
        tramp.succeed(w)

    def _start(self, tramp: Event) -> None:
        w = tramp._value
        Timeout(self.env, w.delay, w).callbacks = self._deliver_cbs

    def _deliver(self, timeout: Event) -> None:
        timeout._value.succeed()


def arm_any(sources: Sequence[WakeupSource], latency: Optional[float] = None) -> Event:
    """Arm every source in ``sources`` (one environment); returns the one
    event the waiter yields on, succeeded by the first delivery.

    ``latency`` is the delivery delay: by default the first source's
    wakeup-unit interrupt latency (for a thread in the ``wait`` state);
    a spinning poller watching the same conditions passes its
    poll-detection latency instead (e.g. one L2 load, ~60 cycles).  A
    latched source fires at once (after just the delivery delay) and
    drops its latch; the waiter never sleeps through a wakeup.
    """
    first = sources[0]
    w = _Waiter(first.env)
    w.sources = sources
    w.delay = first.params.wakeup_latency if latency is None else latency
    w.fired = False
    # Runs before the waiter's process resumes (it registers later).
    w.callbacks = [_disarm]
    for s in sources:
        if s._latched:
            s._latched = False
            s.latched_fires += 1
            s.wakeups += 1
            if not w.fired:
                s._fire(w)
        else:
            s._armed.append(w)
    return w


def _disarm(w: _Waiter) -> None:
    """The waiter resumes: leave every source still holding it."""
    for s in w.sources:
        armed = s._armed
        if w in armed:
            armed.remove(w)
