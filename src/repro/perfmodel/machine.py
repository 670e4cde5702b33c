"""Node-level throughput and messaging-cost models.

These are the analytic counterparts of the DES components, used for the
node counts (up to 16,384) the paper reports but a Python DES cannot
simulate.  Every formula mirrors a mechanism in :mod:`repro.bgq` /
:mod:`repro.converse`, with the same parameter values, so the analytic
model and the DES agree where they overlap (cross-validated in the test
suite).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bgq.params import BGQParams, DEFAULT_PARAMS

__all__ = [
    "per_thread_ipc",
    "core_issue_rate",
    "node_issue_rate",
    "worker_message_instr",
    "commthread_message_instr",
    "queue_contention_factor",
    "BGP",
    "BGPParams",
]


def per_thread_ipc(threads_per_core: float, params: BGQParams = DEFAULT_PARAMS) -> float:
    """Sustained IPC of one thread with n threads sharing its core.

    The same weighted-processor-sharing formula as
    :class:`repro.bgq.core.Core` (4 threads/core = the paper's 2.3x).
    """
    if threads_per_core <= 0:
        raise ValueError("threads per core must be positive")
    n = threads_per_core
    ipc = params.base_ipc / (1.0 + max(0.0, n - 1.0) * params.smt_interference)
    ipc = min(ipc, params.thread_issue_cap)
    if n * ipc > params.core_issue_width:
        ipc = params.core_issue_width / n
    return ipc


def core_issue_rate(threads_per_core: float, params: BGQParams = DEFAULT_PARAMS) -> float:
    """Aggregate instructions/cycle of one core with n resident threads."""
    return threads_per_core * per_thread_ipc(threads_per_core, params)


def node_issue_rate(worker_threads: int, params: BGQParams = DEFAULT_PARAMS) -> float:
    """Aggregate instructions/cycle of a node running ``worker_threads``.

    Threads spread over the 16 cores as evenly as possible.
    """
    if worker_threads < 1:
        return 0.0
    cores = params.cores_per_node
    full, extra = divmod(worker_threads, cores)
    rate = 0.0
    if full:
        rate += (cores - extra) * core_issue_rate(full, params)
    elif extra:
        rate += 0.0
    if extra:
        rate += extra * core_issue_rate(full + 1, params)
    return rate


def worker_message_instr(
    params: BGQParams = DEFAULT_PARAMS,
    smp: bool = True,
    comm_threads: bool = False,
) -> float:
    """Send+receive software path length charged to *worker* threads
    for one point-to-point message (mirrors the Converse send path)."""
    send = params.converse_send_instr + (params.smp_overhead_instr if smp else 0.0)
    alloc = 2 * params.pool_alloc_instr + params.l2_atomic_latency * params.base_ipc
    if comm_threads:
        # Workers only post to the comm-thread work queue and later
        # dequeue the delivered message from their PE queue.
        return send + params.commthread_post_instr + alloc + 150.0
    recv = params.converse_recv_instr + params.pami_dispatch_instr
    return send + params.pami_send_imm_instr + recv + alloc + 150.0


def commthread_message_instr(params: BGQParams = DEFAULT_PARAMS, m2m: bool = False) -> float:
    """Per-message work executed on a communication thread."""
    if m2m:
        return 2 * params.m2m_per_msg_instr + 70.0
    return (
        params.pami_send_imm_instr
        + params.pami_dispatch_instr
        + params.converse_recv_instr
        + 70.0
    )


def queue_contention_factor(
    threads_per_process: int,
    l2_atomics: bool,
    params: BGQParams = DEFAULT_PARAMS,
) -> float:
    """Multiplier on per-message cost from intra-process queueing.

    With L2 atomic queues and pool allocators the cost is flat; with
    mutex-guarded queues and the GNU arena allocator, contention grows
    with the number of threads hammering shared structures (the Fig. 8
    ablation: 67% slowdown at 1 process x 64 threads on 512 nodes).
    """
    if l2_atomics:
        return 1.0
    t = max(1, threads_per_process)
    # Mutex round trip + expected queueing delay scales with the number
    # of contenders per lock (t threads over gnu_arenas locks).
    contenders = t / params.gnu_arenas
    return 1.0 + 0.55 * contenders


@dataclass(frozen=True)
class BGPParams:
    """Reduced Blue Gene/P model (Fig. 11 comparison curve)."""

    clock_hz: float = 0.85e9
    cores_per_node: int = 4
    #: Sustained IPC per core (PPC450, dual FPU, no SMT).
    core_ipc: float = 0.5
    link_bandwidth: float = 0.425e9  # B/s per link, 3D torus
    hop_latency_s: float = 100e-9
    torus_dims: int = 3
    #: Per-message software cost (seconds): Charm++ over DCMF was more
    #: expensive per message than the PAMI path on BG/Q.
    per_message_s: float = 4.5e-6

    def node_issue_rate_hz(self) -> float:
        return self.cores_per_node * self.core_ipc * self.clock_hz


BGP = BGPParams()
