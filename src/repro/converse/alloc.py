"""CmiAlloc: scalable message-buffer allocation (§III-B).

Every Charm++ message send allocates a buffer.  Routing those
allocations to the GNU arena allocator causes mutex contention on
``free`` — a thread freeing a buffer must lock the arena the buffer
came from, and threads that receive messages from the same source all
free to the *same* arena (measured in Fig. 6).

The paper's fix, implemented here: each thread keeps a pool of
temporary buffers in its own **L2 atomic queue**.  ``free`` does a
lockless enqueue to the queue of the thread that created the buffer;
``malloc`` does a lockless dequeue from the caller's own pool.  Past a
pool-size threshold, buffers spill back to the heap.
"""

from __future__ import annotations

from typing import Dict

from ..bgq.memory import Buffer
from ..bgq.node import HWThread, Node
from ..bgq.params import BGQParams, DEFAULT_PARAMS
from ..queues import L2AtomicQueue

__all__ = ["PoolAllocator", "GnuAllocator", "make_allocator"]


class GnuAllocator:
    """Thin adapter: CmiAlloc backed directly by the arena allocator."""

    name = "gnu"

    def __init__(self, node: Node, params: BGQParams = DEFAULT_PARAMS) -> None:
        self.node = node
        self.params = params
        self.arena = node.arena_allocator
        # Native statistics, snapshotted into the tracer's alloc.*
        # counters at the end of a traced run.
        self.mallocs = 0
        self.frees = 0

    def malloc(self, thread: HWThread, size: int):
        self.mallocs += 1
        buf = yield from self.arena.malloc(thread, size)
        buf.owner_tid = thread.tid
        return buf

    def free(self, thread: HWThread, buffer: Buffer):
        self.frees += 1
        yield from self.arena.free(thread, buffer)


class PoolAllocator:
    """Per-thread L2-atomic buffer pools over the arena allocator.

    * ``malloc``: lockless dequeue from the calling thread's own pool;
      on a miss, fall through to the arena allocator.
    * ``free``: lockless enqueue to the pool of the buffer's *creator*
      thread (so the creator's future mallocs reuse it); past
      ``pool_threshold`` buffers, spill to the heap instead.
    """

    name = "pool"

    def __init__(
        self,
        node: Node,
        params: BGQParams = DEFAULT_PARAMS,
        pool_threshold: int = 256,
    ) -> None:
        self.node = node
        self.params = params
        self.pool_threshold = pool_threshold
        self.arena = node.arena_allocator
        self._pools: Dict[int, L2AtomicQueue] = {}
        # Native statistics, snapshotted into the tracer's alloc.*
        # counters at the end of a traced run.
        self.mallocs = 0
        self.frees = 0
        self.pool_hits = 0
        self.pool_misses = 0
        self.spills = 0

    def _pool(self, tid: int) -> L2AtomicQueue:
        pool = self._pools.get(tid)
        if pool is None:
            pool = L2AtomicQueue(
                self.node.env,
                self.node.l2,
                size=self.pool_threshold,
                name=f"pool-n{self.node.node_id}t{tid}",
                params=self.params,
            )
            self._pools[tid] = pool
        return pool

    def malloc(self, thread: HWThread, size: int):
        p = self.params
        self.mallocs += 1
        pool = self._pool(thread.tid)
        yield from thread.compute(p.pool_alloc_instr)
        buf = yield from pool.dequeue(thread)
        if buf is not None:
            self.pool_hits += 1
            buf.size = size
            return buf
        self.pool_misses += 1
        buf = yield from self.arena.malloc(thread, size)
        buf.owner_tid = thread.tid
        buf.origin = "gnu"
        return buf

    def free(self, thread: HWThread, buffer: Buffer):
        p = self.params
        self.frees += 1
        pool = self._pool(buffer.owner_tid if buffer.owner_tid >= 0 else thread.tid)
        yield from thread.compute(p.pool_alloc_instr)
        if len(pool) < self.pool_threshold:
            # Lockless enqueue to the creator's pool — never touches the
            # arena mutex, whoever we are.
            yield from pool.enqueue(thread, buffer)
        else:
            self.spills += 1
            yield from self.arena.free(thread, buffer)


def make_allocator(node: Node, kind: str, params: BGQParams = DEFAULT_PARAMS):
    """Build a CmiAlloc backend: ``"pool"`` (optimized) or ``"gnu"``."""
    if kind == "pool":
        return PoolAllocator(node, params)
    if kind == "gnu":
        return GnuAllocator(node, params)
    raise ValueError(f"unknown allocator kind {kind!r}")
