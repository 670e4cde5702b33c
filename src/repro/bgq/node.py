"""One BG/Q compute node: cores, hardware threads, L2, MU, allocator."""

from __future__ import annotations

from typing import List

from ..sim import Environment
from .core import Core
from .l2 import L2AtomicUnit
from .memory import ArenaAllocator
from .mu import MessagingUnit
from .params import BGQParams, DEFAULT_PARAMS

__all__ = ["HWThread", "Node"]


class HWThread:
    """One of the 64 hardware threads of a node.

    Runtime code runs *on* a hardware thread: all software path lengths
    are charged through :meth:`compute` so that SMT sharing on the
    owning core applies.  A thread waiting on an armed
    :class:`~repro.bgq.wakeup.WakeupSource` models the PowerPC ``wait``
    instruction: it registers no core member, so it consumes nothing
    until the wakeup-unit interrupt [paper §II].
    """

    def __init__(self, env: Environment, node: "Node", core: Core, slot: int, tid: int) -> None:
        self.env = env
        self.node = node
        self.core = core
        self.slot = slot  # 0..3 within the core
        self.tid = tid  # 0..63 within the node
        self.instructions = 0.0

    def compute(self, instructions: float):
        """Execute ``instructions`` on this thread's core.

        Returns the core's compute generator directly — call sites drive
        it with ``yield from`` exactly as before, but each charge no
        longer pays a delegating wrapper frame.  This is the hottest
        call in the simulator: every queue operation, handler dispatch
        and memcpy in ``queues.py``/``converse/`` is charged through it,
        so batching the accounting here (one attribute add, then the
        core generator) measurably shortens the DES hot loop.
        """
        self.instructions += instructions
        return self.core.compute(instructions)


class Node:
    """A BG/Q compute node: 16 A2 cores x 4 threads + L2 + MU + heap."""

    def __init__(
        self,
        env: Environment,
        node_id: int = 0,
        params: BGQParams = DEFAULT_PARAMS,
    ) -> None:
        self.env = env
        self.node_id = node_id
        self.params = params
        self.cores: List[Core] = [
            Core(env, core_id=i, params=params) for i in range(params.cores_per_node)
        ]
        self.threads: List[HWThread] = []
        tid = 0
        for core in self.cores:
            for slot in range(params.threads_per_core):
                self.threads.append(HWThread(env, self, core, slot, tid))
                tid += 1
        self.l2 = L2AtomicUnit(env, params)
        self.mu = MessagingUnit(env, node_id, params)
        self.arena_allocator = ArenaAllocator(env, params)

    def thread(self, tid: int) -> HWThread:
        return self.threads[tid]

    @property
    def n_threads(self) -> int:
        return len(self.threads)
