"""Blue Gene/Q machine constants.

All simulated time in this package is measured in *A2 clock cycles*
(1.6 GHz, so 1 us = 1600 cycles).  Each constant notes its provenance:
``[paper]`` = stated in the reproduced IPDPS'13 paper, ``[bgq]`` = public
BG/Q architecture literature (Chen et al. SC'11, IBM redbooks),
``[calibrated]`` = chosen so the simulated micro-benchmarks land in the
regime the paper reports (the reproduction target is shape, not absolute
microseconds).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BGQParams", "DEFAULT_PARAMS"]

#: A2 core clock [paper: "running at 1.6 GHz"].
CLOCK_HZ = 1.6e9
CYCLES_PER_US = CLOCK_HZ / 1e6  # 1600


@dataclass(frozen=True)
class BGQParams:
    """Tunable model constants for one simulated BG/Q machine.

    Frozen: the module-level ``DEFAULT_PARAMS`` instance is shared by
    every Environment in the process, so a writable field here would be
    cross-instance state (lint rule G1).  Use ``BGQParams(field=...)``
    or ``dataclasses.replace`` to vary parameters per run.
    """

    # ---- chip -------------------------------------------------------
    cores_per_node: int = 16  # [paper] 16 app cores (17th OS, 18th spare)
    threads_per_core: int = 4  # [paper]
    #: Aggregate issue capacity per core in instructions/cycle
    #: [paper: "two concurrent instructions per cycle, one fixed and one
    #: floating point"].
    core_issue_width: float = 2.0
    #: Per-hardware-thread issue cap [paper: "each thread can issue only
    #: one instruction per cycle"].
    thread_issue_cap: float = 1.0
    #: Single-thread sustained IPC for runtime/integer code (in-order A2
    #: with load-use stalls) [calibrated].
    base_ipc: float = 0.6
    #: L1-contention interference coefficient between co-resident
    #: threads; 0.2464 makes 4 threads/core = 2.3x one thread, the
    #: paper's measured NAMD ratio [paper: "speedup of 2.3x when using
    #: all four threads vs only one thread"].
    smt_interference: float = 0.2464

    # ---- caches / atomics -------------------------------------------
    l1p_latency: float = 27.0  # cycles [paper: "latency to the L1P ... about 27 cycles"]
    #: L2 atomic operation round-trip [paper: "L2 atomic counter load
    #: instructions take about 60 cycles"].
    l2_atomic_latency: float = 60.0
    #: Issue weight of a thread spinning on an L2 atomic load: it issues
    #: roughly one instruction per l2_atomic_latency cycles (§III-D).
    idle_poll_l2_weight: float = 1.0 / 60.0
    #: Issue weight of a naive spin loop (burns issue slots every cycle).
    idle_poll_naive_weight: float = 1.0
    #: Detection latency of new work for each idle-poll flavour: the L2
    #: poll notices within one atomic load; the naive spin within a few
    #: cycles (its only virtue).
    idle_poll_l2_detect: float = 60.0
    idle_poll_naive_detect: float = 4.0

    # ---- software costs (instructions, executed on the core) --------
    #: pthread mutex lock/unlock, uncontended [calibrated: ~40 ns].
    mutex_acquire_instr: float = 60.0
    mutex_release_instr: float = 40.0
    #: glibc arena malloc/free fast-path work [calibrated].
    gnu_malloc_instr: float = 180.0
    gnu_free_instr: float = 150.0
    #: Arena search: cost of probing one arena's lock on malloc.
    arena_probe_instr: float = 25.0
    #: Pool-allocator fast path around one L2 atomic op [paper §III-B].
    pool_alloc_instr: float = 40.0
    #: Number of glibc arenas available to a 64-thread process
    #: [bgq: glibc caps arenas at 8 * ncpus; contention observed when
    #: several threads free to the same arena].
    gnu_arenas: int = 8

    # ---- messaging software costs -----------------------------------
    #: Converse/Charm++ send-side software overhead per message
    #: (scheduler + envelope + PAMI call) [calibrated to ~2.9 us one-way
    #: non-SMP ping-pong].
    converse_send_instr: float = 700.0
    #: Receive-side dispatch + scheduler enqueue + handler setup.
    converse_recv_instr: float = 820.0
    #: Extra per-message overhead in SMP mode (shared runtime structures)
    #: [paper Fig. 4: SMP ~0.4 us slower than non-SMP for tiny messages].
    smp_overhead_instr: float = 550.0
    #: Extra hop cost when a message is relayed via a communication
    #: thread (post to work queue + wakeup) [paper Fig. 4/5: comm-thread
    #: mode ~0.2-0.4 us slower for tiny messages].
    commthread_post_instr: float = 300.0
    #: PAMI_Send_immediate software cost (single descriptor) vs
    #: PAMI_Send (two descriptors).
    pami_send_imm_instr: float = 350.0
    pami_send_instr: float = 550.0
    #: PAMI context advance poll when empty.
    context_advance_instr: float = 120.0
    #: Dispatch callback invocation cost.
    pami_dispatch_instr: float = 250.0
    #: Per-message cost inside a many-to-many burst (amortized: no
    #: per-message scheduler/envelope work) [paper §III-E].
    m2m_per_msg_instr: float = 180.0
    #: One-time cost of CmiDirectManytomany_start() per handle.
    m2m_start_instr: float = 400.0
    #: Threshold above which the rendezvous (Rget) protocol is used.
    rendezvous_threshold: int = 4096  # bytes [calibrated; typical eager limit]
    #: Rget handshake: header packet + acknowledgment.
    rendezvous_extra_instr: float = 800.0
    #: Intra-node pointer-exchange delivery cost (enqueue + dequeue +
    #: scheduler) [paper Fig. 5: ~1.1 us one way in SMP mode].
    intranode_deliver_instr: float = 880.0
    #: Payload copy cost (pack at send, unpack into the user buffer at
    #: receive): bytes per instruction at L1 streaming bandwidth.
    memcpy_bytes_per_instr: float = 8.0
    #: Charm++ entry-method scheduling overhead above raw Converse
    #: handler dispatch.
    charm_entry_instr: float = 350.0

    # ---- messaging unit ----------------------------------------------
    mu_injection_fifos: int = 544  # [paper]
    mu_reception_fifos: int = 272  # [paper]
    packet_payload_max: int = 512  # bytes/packet [bgq]
    packet_header_bytes: int = 32  # [bgq; source of the 1.8/2.0 efficiency]
    #: MU descriptor fetch-and-process overhead per packet per FIFO
    #: engine [calibrated: bounds per-FIFO message rate].
    mu_packet_overhead: float = 120.0  # cycles
    #: Interrupt delivery latency from wakeup unit to waiting thread.
    wakeup_latency: float = 160.0  # cycles [bgq: ~100 ns wakeup]

    # ---- network ------------------------------------------------------
    torus_dims: int = 5  # [paper]
    link_bandwidth: float = 2.0e9  # B/s raw [paper]
    link_effective_bandwidth: float = 1.8e9  # B/s [paper]
    hop_latency: float = 64.0  # cycles/hop (~40 ns) [bgq SC'11]
    #: Fixed network ingress/egress latency (MU to torus and back).
    nic_latency: float = 800.0  # cycles (~0.5 us) [calibrated]

    # ---- derived -------------------------------------------------------
    @property
    def threads_per_node(self) -> int:
        return self.cores_per_node * self.threads_per_core


DEFAULT_PARAMS = BGQParams()
