"""Memory-allocator micro-benchmark (Fig. 6).

The paper's experiment: all 64 threads of a node simultaneously
allocate 100 buffers each and then free them, with (a) direct calls to
the GNU arena allocator and (b) the lockless per-thread L2-atomic pool
allocator.  The mutex contention on ``free`` is what the pool design
eliminates (§III-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..bgq import BGQMachine
from ..bgq.params import BGQParams, CYCLES_PER_US, DEFAULT_PARAMS
from ..converse.alloc import make_allocator
from ..sim import Environment

__all__ = ["AllocBenchResult", "run_alloc_bench", "fig6_allocator"]

#: Size of every buffer the Fig. 6 workload allocates.
BUFFER_BYTES = 1024


@dataclass
class AllocBenchResult:
    """Outcome of one allocator benchmark run."""

    kind: str
    n_threads: int
    buffers_per_thread: int
    total_us: float
    us_per_op: float  # one op = one malloc or one free
    contended_acquires: int
    contention_wait_us: float


def run_alloc_bench(
    kind: str,
    n_threads: int = 64,
    buffers_per_thread: int = 100,
    params: BGQParams = DEFAULT_PARAMS,
    warm: bool = False,
) -> AllocBenchResult:
    """Run the Fig. 6 workload on the DES; returns timing + contention.

    ``warm=True`` pre-populates the pools (steady-state behaviour);
    the paper's cold-start run stresses the arena allocator either way
    because pool misses fall through to it.
    """
    env = Environment()
    machine = BGQMachine(env, 1, params=params)
    node = machine.node(0)
    alloc = make_allocator(node, kind, params)

    def pass_once(tid, done):
        thread = node.thread(tid)
        bufs = []
        for _ in range(buffers_per_thread):
            b = yield from alloc.malloc(thread, BUFFER_BYTES)
            bufs.append(b)
        for b in bufs:
            yield from alloc.free(thread, b)
        done.append(tid)

    if warm:
        warmed = []
        for tid in range(n_threads):
            env.process(pass_once(tid, warmed))
        env.run()
        if len(warmed) != n_threads:
            raise RuntimeError("allocator warm-up did not complete")

    arena = node.arena_allocator
    contended0 = arena.total_contended_acquires()
    wait0 = arena.total_contention_wait()
    t0 = env.now
    finished = []
    for tid in range(n_threads):
        env.process(pass_once(tid, finished))
    env.run()
    if len(finished) != n_threads:
        raise RuntimeError("allocator benchmark did not complete")
    total = env.now - t0
    ops = n_threads * buffers_per_thread * 2
    return AllocBenchResult(
        kind=kind,
        n_threads=n_threads,
        buffers_per_thread=buffers_per_thread,
        total_us=total / CYCLES_PER_US,
        us_per_op=total / CYCLES_PER_US / ops * n_threads,
        contended_acquires=arena.total_contended_acquires() - contended0,
        contention_wait_us=(arena.total_contention_wait() - wait0) / CYCLES_PER_US,
    )


#: Fig. 6's threads per node and buffers each thread allocates and frees.
FIG6_THREADS = 64
FIG6_BUFFERS_PER_THREAD = 100


def fig6_allocator() -> Dict[str, AllocBenchResult]:
    """Both sides of Fig. 6."""
    return {
        "gnu": run_alloc_bench("gnu", FIG6_THREADS, FIG6_BUFFERS_PER_THREAD),
        "pool": run_alloc_bench(
            "pool", FIG6_THREADS, FIG6_BUFFERS_PER_THREAD, warm=True
        ),
    }
