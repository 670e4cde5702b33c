"""Converse-level ping-pong micro-benchmarks (Figs. 4 and 5).

Fig. 4 — one-way latency to a neighbouring node for the three run
modes (non-SMP, SMP without communication threads, SMP with them)
across message sizes.

Fig. 5 — one-way latency within one BG/Q node: (I) between threads in
different processes (MU loopback) and (II) between threads of the same
Charm++ SMP process (pointer exchange; size-independent).

Everything runs on the full DES stack: real lockless queues, PAMI
contexts, MU packets and torus links.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Sequence, Tuple

import numpy as np

from ..bgq.params import CYCLES_PER_US
from ..converse import RunConfig
from .workloads import build_pingpong, run_instance

__all__ = [
    "pingpong_run",
    "pingpong_oneway_us",
    "fig4_internode",
    "fig5_intranode",
    "FIG4_MODES",
    "FIG4_SIZES",
]

#: The three modes of Fig. 4 (2 nodes each).
FIG4_MODES: Dict[str, RunConfig] = MappingProxyType({
    "non-SMP": RunConfig(nnodes=2, processes_per_node=1, workers_per_process=1),
    "SMP": RunConfig(nnodes=2, workers_per_process=4),
    "SMP+commthread": RunConfig(
        nnodes=2, workers_per_process=4, comm_threads_per_process=1
    ),
})

FIG4_SIZES: Tuple[int, ...] = (16, 32, 128, 512, 2048, 8192, 32768, 131072)


def pingpong_run(
    config: RunConfig,
    nbytes: int,
    src_rank: int = 0,
    dst_rank: int | None = None,
    trips: int = 8,
    skip: int = 2,
) -> Dict[str, object]:
    """Run one DES ping-pong and return raw run statistics.

    Returns a dict with the mean one-way latency (``oneway_us``), the
    raw round-trip samples in cycles (``rtts``), and engine statistics
    the benchmark gate records: wall-clock seconds of the simulation
    loop (``wall_s``), engine events processed (``events``), and the
    final simulated time in cycles (``sim_time``).
    """
    if dst_rank is None:
        dst_rank = config.pes_per_node  # first PE of node 1
    inst = build_pingpong(config, nbytes, trips, src_rank, dst_rank)
    wall_s = run_instance(inst)
    rtts = inst.observe()["rtts"]
    usable = rtts[skip:]
    if not usable:
        raise RuntimeError("ping-pong completed no measurable trips")
    return {
        "oneway_us": float(np.mean(usable)) / 2.0 / CYCLES_PER_US,
        "rtts": rtts,
        "wall_s": wall_s,
        "events": inst.env.events_executed,
        "sim_time": inst.env.now,
    }


def pingpong_oneway_us(
    config: RunConfig,
    nbytes: int,
    src_rank: int = 0,
    dst_rank: int | None = None,
    trips: int = 8,
    skip: int = 2,
) -> float:
    """Measure mean one-way latency (microseconds) via DES ping-pong."""
    result = pingpong_run(
        config, nbytes, src_rank=src_rank, dst_rank=dst_rank, trips=trips, skip=skip
    )
    return result["oneway_us"]


def fig4_internode(
    sizes: Sequence[int] = FIG4_SIZES, trips: int = 8
) -> Dict[str, Dict[int, float]]:
    """One-way inter-node latency per mode and size (microseconds)."""
    out: Dict[str, Dict[int, float]] = {}
    for mode, config in FIG4_MODES.items():
        out[mode] = {}
        for size in sizes:
            out[mode][size] = pingpong_oneway_us(config, size, trips=trips)
    return out


def fig5_intranode(
    sizes: Sequence[int] = (16, 512, 8192, 131072), trips: int = 8
) -> Dict[str, Dict[int, float]]:
    """One-way intra-node latency (microseconds).

    Cases: different processes on one node (loopback through the MU)
    and same SMP process (pointer exchange), each with and without
    communication threads.
    """
    cases = {
        "processes": RunConfig(nnodes=1, processes_per_node=2, workers_per_process=2),
        "processes+ct": RunConfig(
            nnodes=1, processes_per_node=2, workers_per_process=2,
            comm_threads_per_process=1,
        ),
        "smp": RunConfig(nnodes=1, workers_per_process=4),
        "smp+ct": RunConfig(
            nnodes=1, workers_per_process=4, comm_threads_per_process=1
        ),
    }
    out: Dict[str, Dict[int, float]] = {}
    for name, config in cases.items():
        out[name] = {}
        if name.startswith("processes"):
            dst = config.workers_per_process  # first PE of process 2
        else:
            dst = config.workers_per_process - 1  # last worker, same process
        for size in sizes:
            out[name][size] = pingpong_oneway_us(config, size, dst_rank=dst, trips=trips)
    return out
