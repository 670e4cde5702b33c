"""Concurrent-Environment isolation: the workloads and the interleaver.

The whole-program lint families prove *statically* that no module-level
mutable state can leak between simulator instances (rules G1-G4, see
docs/ANALYSIS.md).  The serve gate (:mod:`repro.harness.servebench`)
proves it *dynamically* with :func:`run_interleaved`: N independent
:class:`~repro.sim.Environment` instances are built in one process and
stepped in an adversarial round-robin interleaving (varying stride per
instance per turn), and every instance must produce a **bit-identical**
simulated-time checksum to the same workload run solo through the
normal ``run(until=event)`` path.

Why this is a sound oracle: ``Environment.run(until=event)`` is exactly
"``step()`` until the event is processed", so a manual step loop over
instance A interleaved with steps of instances B..N can only diverge
from A's solo run if stepping B..N mutates state A reads — i.e. if some
shared mutable module global exists that the static pass missed.

Only the public Environment surface is used — ``peek()``, ``step()``,
``Event.processed`` — never ``_queue``/``_imm`` (lint rule P3).

Workloads (N=4 tiny, N=6 full): Converse-level ping-pongs in distinct
run modes plus, at full scale, two Charm-level mini-NAMD runs (std and
many-to-many PME), so both runtime layers are exercised concurrently.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..converse import RunConfig
from .pingpong import FIG4_MODES
from .workloads import Instance, build_namd, build_pingpong

__all__ = [
    "build_pingpong_instance",
    "build_namd_instance",
    "gate_workloads",
    "run_interleaved",
]

#: Per-turn step strides; instance ``i`` advances ``STRIDES[(turn + i) %
#: len(STRIDES)]`` events on its turn, so the interleaving pattern keeps
#: shifting instead of degenerating into a fixed 1:1:...:1 rotation.
STRIDES: Tuple[int, ...] = (1, 2, 3, 5)


def build_pingpong_instance(
    name: str,
    config: RunConfig,
    nbytes: int,
    dst_rank: Optional[int] = None,
    trips: int = 8,
) -> Instance:
    """A deferred ping-pong run (same protocol as ``pingpong_run``)."""
    if dst_rank is None:
        dst_rank = config.pes_per_node  # first PE of node 1
    inst = build_pingpong(config, nbytes, trips, 0, dst_rank)
    inst.name = name
    return inst


def build_namd_instance(
    name: str,
    use_m2m_pme: bool,
    n_atoms: int = 216,
    n_steps: int = 2,
    seed: int = 7,
) -> Instance:
    """A deferred tiny mini-NAMD run (Charm layer over Converse)."""
    inst = build_namd(
        RunConfig(nnodes=2, workers_per_process=2, comm_threads_per_process=1),
        n_atoms, n_steps, use_m2m_pme, seed,
    )
    inst.name = name
    return inst


#: The ping-pong instances, one per run mode: (name, config, message
#: bytes, dst rank — None for the first PE of node 1).
_PINGPONGS = (
    ("pingpong/non-SMP/512B", FIG4_MODES["non-SMP"], 512, None),
    ("pingpong/SMP/2048B", FIG4_MODES["SMP"], 2048, None),
    ("pingpong/SMP+ct/16B", FIG4_MODES["SMP+commthread"], 16, None),
    ("pingpong/intranode-SMP/128B", RunConfig(nnodes=1, workers_per_process=4), 128, 3),
)


def gate_workloads(scale: str = "full") -> List[Tuple[str, Callable[[], Instance]]]:
    """(name, builder) pairs; each call to a builder is a fresh instance."""
    trips = 6 if scale == "tiny" else 8
    workloads: List[Tuple[str, Callable[[], Instance]]] = [
        (name, partial(build_pingpong_instance, name, config, nbytes, dst_rank, trips))
        for name, config, nbytes, dst_rank in _PINGPONGS
    ]
    if scale == "full":
        workloads += [
            (name, partial(build_namd_instance, name, use_m2m_pme))
            for name, use_m2m_pme in (("namd/std-PME", False), ("namd/m2m-PME", True))
        ]
    return workloads


def run_interleaved(
    builders: Sequence[Callable[[], Instance]],
    strides: Sequence[int] = STRIDES,
) -> Dict[str, str]:
    """Build every workload fresh, step them round-robin, return checksums.

    Each instance stops exactly when its done event is processed — the
    same stopping point as ``env.run(until=done)`` — so a checksum can
    differ from the solo run only through cross-instance interference.
    """
    instances = [build() for build in builders]
    for inst in instances:
        inst.start()
    active = list(range(len(instances)))
    turn = 0
    while active:
        still: List[int] = []
        for i in active:
            inst = instances[i]
            for _ in range(strides[(turn + i) % len(strides)]):
                if inst.done.processed:
                    break
                if inst.env.peek() == float("inf"):
                    raise RuntimeError(
                        f"{inst.name}: event queue drained before the done "
                        "event was processed"
                    )
                inst.env.step()
            if not inst.done.processed:
                still.append(i)
        active = still
        turn += 1
    for inst in instances:
        inst.stop()
    return {inst.name: inst.checksum() for inst in instances}
