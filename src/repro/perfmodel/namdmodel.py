"""Analytic NAMD step-time model (Figs. 7, 8, 11, 12; Table II).

The DES runs mini-NAMD in full at small scale; the paper's largest runs
(16,384 nodes, 1M+ hardware threads) are far beyond a Python DES, so
this model extends the same mechanisms analytically:

* **compute throughput** — kernel flops through the SMT issue model
  (the 2.3x four-thread core, QPX 4-wide + the 15.8% L1P tuning);
* **memory bandwidth** — pair-list traffic through the node's memory
  system (dominant for the 100M-atom system);
* **messaging** — per-message software paths on workers or offloaded to
  communication threads, times the L2-atomic/mutex contention factor
  (the Fig. 8 ablation);
* **PME network** — charge-grid transposes through the torus;
* **critical-path chain** — the sequential entry-method/message legs of
  one step; with ~1 atom per core this floor dominates (the reason
  ApoA1 flattens near 683 us while STMV keeps scaling);
* **granularity imbalance** — when threads outnumber work objects.

Calibration anchors (named in :class:`NamdModelConstants`): ApoA1
single-core step time implied by the paper's speedups, ApoA1 at 4096
nodes, STMV-100M at 2048 nodes.  All other points — and every *trend*
(config crossovers, scaling curves, ablation deltas) — are predictions
of the model structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..bgq.params import BGQParams, CLOCK_HZ, DEFAULT_PARAMS
from ..bgq.torus import bgq_partition_shape
from ..namd.system import SystemSpec
from .machine import (
    BGP,
    commthread_message_instr,
    node_issue_rate,
    per_thread_ipc,
    queue_contention_factor,
    worker_message_instr,
)

__all__ = [
    "NamdRunConfig",
    "NamdModelConstants",
    "namd_step_time",
    "best_config",
    "bgp_step_time",
    "FIG7_CONFIGS",
]


@dataclass(frozen=True)
class NamdRunConfig:
    """One NAMD launch configuration on BG/Q."""

    workers: int = 64
    comm_threads: int = 0
    processes_per_node: int = 1
    l2_atomics: bool = True
    m2m_pme: bool = True
    qpx: bool = True
    pme_every: int = 4
    nonbonded_every: int = 1

    @property
    def threads_per_process(self) -> int:
        return (self.workers + self.comm_threads) // self.processes_per_node

    def label(self) -> str:
        return (
            f"{self.processes_per_node}p x {self.workers}w+{self.comm_threads}c"
        )


#: The three thread/process configurations compared in Fig. 7.
FIG7_CONFIGS = (
    NamdRunConfig(workers=64, comm_threads=0),
    NamdRunConfig(workers=48, comm_threads=8),
    NamdRunConfig(workers=32, comm_threads=8),
)


@dataclass(frozen=True)
class NamdModelConstants:
    """Calibrated constants with their anchors.

    The master anchor is the paper's own throughput statement: speedup
    3981 at 683 us/step on 4096 nodes means one *core* (4 hardware
    threads) takes 2.72 s/step on ApoA1, i.e. ~6.0G instructions/step at
    the core's 2.2 Ginstr/s — 257 instructions per non-bonded pair for
    *all* per-step work (kernel + exclusions + bookkeeping + bonded +
    integration, QPX-tuned).  Remarkably, the same per-pair cost
    reproduces the STMV-100M Table II anchor within ~7% with no further
    tuning.
    """

    #: Pair-list margin over the ideal cutoff sphere.
    pair_margin: float = 1.4
    #: Total per-step instructions per non-bonded pair, QPX-tuned
    #: [anchor: ApoA1 single-core 2.72 s/step = ~6.0G instructions over
    #: ~46.7M margin-inflated pairs].
    instr_per_pair: float = 128.0
    #: Memory traffic per non-bonded pair, bytes (pairlist + coords).
    pair_traffic_bytes: float = 64.0
    #: Sustained node memory bandwidth, B/s [bgq: ~28 GB/s stream].
    mem_bandwidth: float = 20e9
    #: Work objects (patches + computes) per atom at fine decomposition.
    objects_per_atom: float = 0.37
    #: Messages per object per step.
    msgs_per_object: float = 3.2
    #: Granularity efficiency: full efficiency needs about this many
    #: atoms per worker thread; fewer threads idle in the gaps
    #: [anchor: ApoA1 1090 us at 1024 nodes / 683 us at 4096].
    grain_atoms_per_thread: float = 5.4
    #: Critical-path entry/message legs per step.
    chain_depth: float = 22.0
    #: Per-leg software latency, seconds (scheduler + queues + wakeup),
    #: for worker-driven messaging; comm threads shorten it.
    chain_leg_sw: float = 5.0e-6
    chain_leg_sw_ct: float = 3.2e-6
    #: Extra legs when PME runs, amortized over pme_every.
    pme_chain_legs: float = 10.0
    #: Serialized mutex handoff per allocator operation when the GNU
    #: arena allocator + mutex queues replace the L2-atomic structures
    #: (Fig. 8 ablation), seconds.
    mutex_handoff: float = 0.08e-6
    #: All-to-all contention factor on PME network bytes.
    net_gamma: float = 2.0
    #: Straggler multiplier.
    jitter: float = 1.1


DEFAULT_NAMD_CONSTANTS = NamdModelConstants()


def _system_instr_per_step(
    spec: SystemSpec, cfg: NamdRunConfig, consts: NamdModelConstants
) -> Tuple[float, float]:
    """(total instructions/step, non-bonded pairs/step) whole machine."""
    c = consts
    ppa = (4.0 / 3.0) * math.pi * spec.cutoff**3 * spec.density * c.pair_margin
    pairs = spec.n_atoms * ppa / 2.0 / cfg.nonbonded_every
    # instr_per_pair is the QPX-tuned calibration; without QPX the
    # kernel portion (~45 flops/pair) runs 4*1.158x slower.
    per_pair = c.instr_per_pair
    if not cfg.qpx:
        per_pair += 45.0 * (4.0 * 1.158 - 1.0)
    instr_nb = pairs * per_pair
    # PME: spreading + interpolation + distributed FFT, every pme_every.
    p3 = spec.pme_grid[0] * spec.pme_grid[1] * spec.pme_grid[2]
    fft_flops = 5.0 * p3 * math.log2(max(2, p3)) * 2.0
    spread_flops = spec.n_atoms * (4**3) * 8.0 * 2.0
    instr_pme = (fft_flops + spread_flops) / 4.0 / cfg.pme_every
    total = instr_nb + instr_pme
    return total, pairs


def namd_step_time(
    spec: SystemSpec,
    nodes: int,
    cfg: NamdRunConfig = NamdRunConfig(),
    consts: NamdModelConstants = DEFAULT_NAMD_CONSTANTS,
    params: BGQParams = DEFAULT_PARAMS,
) -> float:
    """Model step time in seconds for one system/configuration/scale."""
    if nodes < 1:
        raise ValueError("need at least one node")
    c = consts
    instr_total, pairs = _system_instr_per_step(spec, cfg, consts)

    # ---- compute throughput -----------------------------------------
    rate = node_issue_rate(cfg.workers, params) * CLOCK_HZ  # instr/s/node
    t_comp = instr_total / (nodes * rate)

    # ---- memory bandwidth ---------------------------------------------
    bytes_mem = pairs * c.pair_traffic_bytes
    t_mem = bytes_mem / (nodes * c.mem_bandwidth)

    # ---- messaging ------------------------------------------------------
    objects = spec.n_atoms * c.objects_per_atom
    msgs_total = objects * c.msgs_per_object
    # PME messages: pencil-grid transposes + charge/potential slabs.
    pencils = min(8.0 * nodes, float(spec.pme_grid[1] * spec.pme_grid[2]))
    pme_msgs = pencils * (2.0 * math.sqrt(pencils) + 4.0) / cfg.pme_every
    msgs_node = (msgs_total + pme_msgs) / nodes
    qf = queue_contention_factor(cfg.threads_per_process, cfg.l2_atomics, params)
    have_ct = cfg.comm_threads > 0
    w_instr = worker_message_instr(
        params, smp=cfg.threads_per_process > 1, comm_threads=have_ct
    )
    t_workers = (instr_total / nodes + msgs_node * w_instr * qf) / rate
    if not cfg.l2_atomics:
        # Without L2 atomics every message's buffer alloc/free and queue
        # ops serialize on process-wide mutexes (arena locks): the
        # handoffs are wall-clock serial within each process and do not
        # parallelize away (added after the imbalance factor below).
        contenders = cfg.threads_per_process / params.gnu_arenas
        msgs_proc = msgs_node / cfg.processes_per_node
        t_alloc_serial = msgs_proc * 2.0 * contenders * c.mutex_handoff
    else:
        t_alloc_serial = 0.0
    if have_ct:
        threads_per_core = (cfg.workers + cfg.comm_threads) / params.cores_per_node
        ipc_ct = per_thread_ipc(min(4.0, max(1.0, threads_per_core)), params)
        ct_instr = commthread_message_instr(params, m2m=cfg.m2m_pme)
        t_ct = msgs_node * ct_instr * qf / (cfg.comm_threads * ipc_ct * CLOCK_HZ)
    else:
        t_ct = 0.0

    # ---- PME network ------------------------------------------------------
    p3 = spec.pme_grid[0] * spec.pme_grid[1] * spec.pme_grid[2]
    pme_bytes_node = 4.0 * p3 * 16.0 / cfg.pme_every / nodes
    t_net = c.net_gamma * pme_bytes_node / (2.0 * params.link_effective_bandwidth)

    # ---- critical-path chain -----------------------------------------------
    shape = bgq_partition_shape(_pow2_at_least(nodes))
    avg_hops = sum(s / 4.0 for s in shape)  # ~half the diameter
    leg_sw = c.chain_leg_sw_ct if have_ct else c.chain_leg_sw
    leg = leg_sw + avg_hops * (params.hop_latency / CLOCK_HZ)
    legs = c.chain_depth + c.pme_chain_legs / cfg.pme_every
    t_chain = legs * leg

    # ---- granularity efficiency ----------------------------------------------
    # With fewer than ~grain_atoms_per_thread atoms per worker thread,
    # scheduling gaps and load imbalance leave threads idle.
    threads = nodes * cfg.workers
    imb = 1.0 + threads * c.grain_atoms_per_thread / spec.n_atoms

    t_work = max(t_comp, t_mem, t_workers, t_ct, t_net)
    return (t_work * imb + t_alloc_serial + t_chain) * c.jitter


def _pow2_at_least(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def best_config(
    spec: SystemSpec,
    nodes: int,
    consts: NamdModelConstants = DEFAULT_NAMD_CONSTANTS,
) -> Tuple[NamdRunConfig, float]:
    """The fastest Fig. 7 configuration at a node count (Fig. 11's 'best')."""
    best = None
    for cfg in FIG7_CONFIGS:
        t = namd_step_time(spec, nodes, cfg, consts)
        if best is None or t < best[1]:
            best = (cfg, t)
    return best


# ---------------- Blue Gene/P comparison (Fig. 11) ---------------------------

def bgp_step_time(
    spec: SystemSpec,
    nodes: int,
    consts: NamdModelConstants = DEFAULT_NAMD_CONSTANTS,
) -> float:
    """ApoA1 step time on the BG/P model (4 cores @850 MHz, 3D torus)."""
    c = consts
    bgp = BGP
    ppa = (4.0 / 3.0) * math.pi * spec.cutoff**3 * spec.density * c.pair_margin
    pairs = spec.n_atoms * ppa / 2.0
    # The PPC450's 2-wide double hummer instead of 4-wide QPX: the
    # kernel portion of the per-pair work doubles in instructions.
    per_pair = c.instr_per_pair + 45.0 * (4.0 * 1.158 / 2.0 - 1.0) * 4.0
    p3 = spec.pme_grid[0] * spec.pme_grid[1] * spec.pme_grid[2]
    instr_pme = (5.0 * p3 * math.log2(max(2, p3)) * 2.0) / 2.0 / 4.0
    instr_total = pairs * per_pair + instr_pme
    t_comp = instr_total / (nodes * bgp.node_issue_rate_hz())

    objects = spec.n_atoms * c.objects_per_atom
    msgs_node = objects * c.msgs_per_object / nodes
    t_msg = msgs_node * bgp.per_message_s / bgp.cores_per_node

    side = max(2.0, nodes ** (1.0 / 3.0))
    avg_hops = 3.0 * side / 4.0
    leg = 6.0e-6 + avg_hops * bgp.hop_latency_s
    t_chain = (c.chain_depth + c.pme_chain_legs / 4.0) * leg

    threads = nodes * bgp.cores_per_node
    imb = 1.0 + threads * c.grain_atoms_per_thread / spec.n_atoms
    return ((t_comp + t_msg) * imb + t_chain) * c.jitter
