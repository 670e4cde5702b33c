"""Synchronisation resources with contention accounting.

This models the *software* synchronisation object the paper contrasts
with BG/Q L2 atomics: the pthread-style mutex whose contention is the
pathology in §III-A/III-B.

The mutex records how long acquirers waited, so benchmarks can report
contention directly (Fig. 6 is essentially a mutex-contention
measurement).
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .engine import Environment, Event, SimulationError

__all__ = ["Mutex", "ContentionStats"]


class ContentionStats:
    """Aggregate waiting statistics for a resource."""

    __slots__ = ("acquisitions", "contended", "total_wait", "max_wait")

    def __init__(self) -> None:
        self.acquisitions = 0
        self.contended = 0
        self.total_wait = 0.0
        self.max_wait = 0.0

    def record(self, wait: float) -> None:
        self.acquisitions += 1
        if wait > 0:
            self.contended += 1
            self.total_wait += wait
            self.max_wait = max(self.max_wait, wait)


class Mutex:
    """FIFO mutex; waiters pay the queueing delay.

    This is the mutex the GNU arena allocator and the mutex-guarded
    queues pay for, which L2 atomic queues avoid.  The instruction cost
    of locking is charged by the caller on its hardware thread.
    """

    def __init__(self, env: Environment, name: str = "mutex") -> None:
        self.env = env
        self.name = name
        self._locked = False
        self._waiters: Deque[tuple[Event, float]] = deque()
        self.stats = ContentionStats()

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self):
        """Process-style acquire; ``yield from mutex.acquire()``."""
        if self._locked:
            ev = self.env.event()
            self._waiters.append((ev, self.env.now))
            yield ev
            # Ownership transferred to us by release(); wait recorded there.
        else:
            self._locked = True
            self.stats.record(0.0)

    def try_acquire(self) -> bool:
        """Non-blocking acquire; returns False if held."""
        if self._locked:
            return False
        self._locked = True
        self.stats.record(0.0)
        return True

    def release(self) -> None:
        """Release; a waiting acquirer takes the lock over directly."""
        if not self._locked:
            raise SimulationError(f"release of unlocked {self.name}")
        if self._waiters:
            ev, t0 = self._waiters.popleft()
            self.stats.record(self.env.now - t0)
            ev.succeed()
        else:
            self._locked = False
