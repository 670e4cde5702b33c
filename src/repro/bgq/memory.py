"""Heap allocator models (§III-B "Scalable Memory Allocation").

On BG/Q the system malloc is the GNU arena allocator: an ``allocate``
call looks for an arena not currently locked by another thread, but a
``free`` **must acquire the mutex of the arena the buffer came from**.
When several threads free buffers allocated from the same arena (the
common case when they all receive messages from the same source), they
serialize on that arena mutex — the contention the paper measured in
Fig. 6 and eliminated with per-thread L2-atomic buffer pools
(implemented in :mod:`repro.converse.alloc`).

The model charges the software path lengths on the calling hardware
thread's core (so SMT sharing applies) and uses a real simulated mutex
per arena, so contention emerges rather than being assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, TYPE_CHECKING

from ..sim import Environment, Mutex
from .params import BGQParams, DEFAULT_PARAMS

if TYPE_CHECKING:  # pragma: no cover
    from .node import HWThread

__all__ = ["Buffer", "ArenaAllocator"]


@dataclass
class Buffer:
    """A heap buffer: remembers the arena that owns it."""

    size: int
    arena: int
    #: Which allocator produced it ("gnu" or "pool"); frees must match.
    origin: str = "gnu"
    #: Pool-allocator bookkeeping: owning thread id.
    owner_tid: int = -1


class ArenaAllocator:
    """GNU-style arena allocator shared by all threads of a process."""

    def __init__(
        self,
        env: Environment,
        params: BGQParams = DEFAULT_PARAMS,
        n_arenas: int | None = None,
    ) -> None:
        self.env = env
        self.params = params
        self.n_arenas = n_arenas if n_arenas is not None else params.gnu_arenas
        if self.n_arenas < 1:
            raise ValueError("need at least one arena")
        self.locks: List[Mutex] = [
            Mutex(env, name=f"arena{i}") for i in range(self.n_arenas)
        ]
        self.mallocs = 0
        self.frees = 0

    def home_arena(self, tid: int) -> int:
        return tid % self.n_arenas

    def malloc(self, thread: "HWThread", size: int):
        """Allocate; generator-style, returns a :class:`Buffer`.

        Mirrors glibc: probe the home arena's lock, then the others in
        order; if every arena is locked, block on the home arena.
        """
        p = self.params
        self.mallocs += 1
        home = self.home_arena(thread.tid)
        order = [home] + [i for i in range(self.n_arenas) if i != home]
        chosen = None
        for arena in order:
            yield from thread.compute(p.arena_probe_instr)
            if self.locks[arena].try_acquire():
                chosen = arena
                break
        if chosen is None:
            chosen = home
            yield from thread.compute(p.mutex_acquire_instr)
            yield from self.locks[chosen].acquire()
        # Allocation work under the arena lock.
        yield from thread.compute(p.gnu_malloc_instr)
        yield from thread.compute(p.mutex_release_instr)
        self.locks[chosen].release()
        return Buffer(size=size, arena=chosen, origin="gnu")

    def free(self, thread: "HWThread", buffer: Buffer):
        """Free; must lock the owning arena (the contention point)."""
        if buffer.origin != "gnu":
            raise ValueError("buffer was not allocated by the arena allocator")
        p = self.params
        self.frees += 1
        yield from thread.compute(p.mutex_acquire_instr)
        yield from self.locks[buffer.arena].acquire()
        yield from thread.compute(p.gnu_free_instr)
        yield from thread.compute(p.mutex_release_instr)
        self.locks[buffer.arena].release()

    # -- diagnostics -------------------------------------------------------
    def total_contention_wait(self) -> float:
        return sum(lock.stats.total_wait for lock in self.locks)

    def total_contended_acquires(self) -> int:
        return sum(lock.stats.contended for lock in self.locks)
