"""Systematic DES-vs-model cross-validation.

The analytic models extend the DES mechanisms to node counts a single
serial Python DES cannot comfortably reach; this module checks them
against each other where they overlap, so a calibration drift in either
engine fails loudly in the test suite.  Since the sharded
conservative-PDES engine (docs/SCALING.md) the overlap includes the
paper's 128-512 node regime (:func:`sharded_torus_crosscheck`).

The comparison is on *ratios* (m2m speedup, mode ordering, contention
factors) rather than absolute microseconds: the analytic constants are
anchored at the paper's scale, the DES constants at the micro-benchmark
scale, and the shapes are the validated quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..bgq.params import CYCLES_PER_US
from .fftmodel import fft_step_time
from .machine import per_thread_ipc

__all__ = [
    "CrossCheck",
    "fft_speedup_crosscheck",
    "smt_crosscheck",
    "sharded_torus_crosscheck",
    "run_all",
]


@dataclass
class CrossCheck:
    """One DES-vs-model comparison."""

    name: str
    des_value: float
    model_value: float
    tolerance_ratio: float  # allowed max(des/model, model/des)

    @property
    def ratio(self) -> float:
        lo, hi = sorted([self.des_value, self.model_value])
        return hi / lo if lo > 0 else float("inf")

    @property
    def ok(self) -> bool:
        return self.ratio <= self.tolerance_ratio

    def __str__(self) -> str:  # pragma: no cover - formatting
        flag = "ok" if self.ok else "DIVERGED"
        return (
            f"{self.name}: DES={self.des_value:.3g} model={self.model_value:.3g}"
            f" (x{self.ratio:.2f} <= x{self.tolerance_ratio:.2f}) {flag}"
        )


def fft_speedup_crosscheck(
    n: int = 16, nnodes: int = 8, iterations: int = 3, tolerance: float = 2.5
) -> CrossCheck:
    """m2m/p2p FFT speedup: full DES stack vs analytic model."""
    from ..harness.fftbench import des_fft_step_us

    des_p2p = des_fft_step_us(n, nnodes, use_m2m=False, workers=1,
                              comm_threads=1, iterations=iterations)
    des_m2m = des_fft_step_us(n, nnodes, use_m2m=True, workers=1,
                              comm_threads=1, iterations=iterations)
    model_p2p = fft_step_time(n, nnodes, "p2p") * 1e6
    model_m2m = fft_step_time(n, nnodes, "m2m") * 1e6
    return CrossCheck(
        name=f"fft-{n}^3-{nnodes}n m2m speedup",
        des_value=des_p2p / des_m2m,
        model_value=model_p2p / model_m2m,
        tolerance_ratio=tolerance,
    )


def smt_crosscheck(tolerance: float = 1.05) -> CrossCheck:
    """4-thread core speedup: DES core model vs closed-form."""
    from ..harness.namdbench import smt_thread_speedup_des

    des = smt_thread_speedup_des()
    model = 4 * per_thread_ipc(4) / per_thread_ipc(1)
    return CrossCheck("smt 4-thread speedup", des, model, tolerance)


def pingpong_mode_crosscheck(tolerance: float = 1.6) -> CrossCheck:
    """SMP-over-non-SMP small-message latency ratio, DES vs the
    instruction-count prediction."""
    from ..bgq.params import DEFAULT_PARAMS
    from ..converse import RunConfig
    from ..harness.pingpong import pingpong_oneway_us

    des_nonsmp = pingpong_oneway_us(
        RunConfig(nnodes=2, workers_per_process=1), 16, trips=6
    )
    des_smp = pingpong_oneway_us(
        RunConfig(nnodes=2, workers_per_process=4), 16, trips=6
    )
    p = DEFAULT_PARAMS
    # The SMP mode adds its per-message overhead on the send side.
    extra_us = p.smp_overhead_instr / p.base_ipc / CYCLES_PER_US
    return CrossCheck(
        "smp-over-nonsmp latency delta (us)",
        des_smp - des_nonsmp,
        extra_us,
        tolerance,
    )


def sharded_torus_crosscheck(
    nnodes: int = 512, nshards: int = 4, nbytes: int = 16, tolerance: float = 1.25
) -> CrossCheck:
    """128+-node torus transit: sharded DES vs closed-form hop model.

    The sharded conservative-PDES engine (docs/SCALING.md) simulates
    the paper's 128-512 node regime for real, so the analytic network
    model can now be checked at scale instead of extrapolated: the
    extra one-way latency of a corner-to-corner ping on a ``nnodes``
    torus over a 2-node neighbour ping must equal the analytic
    prediction ``extra_hops * hop_latency`` — everything else in the
    path (software overhead, NIC latency, serialization) is identical
    between the two runs and cancels.
    """
    from ..bgq.params import DEFAULT_PARAMS
    from ..bgq.torus import bgq_partition_shape
    from ..converse import RunConfig
    from ..harness.pingpong import pingpong_run
    from ..harness.shardbench import run_sharded_pingpong

    def _hops(shape: Tuple[int, ...], node: int) -> int:
        # Wraparound distance node 0 -> `node`, dimension-ordered coords.
        total, rest = 0, node
        for d in reversed(shape):
            rest, c = divmod(rest, d)
            total += min(c, d - c) if d > 1 else 0
        return total

    def _oneway(rtts, skip=2):
        usable = rtts[skip:]
        return (sum(usable) / len(usable)) / 2.0 / CYCLES_PER_US

    config2 = RunConfig(nnodes=2, workers_per_process=4)
    near = pingpong_run(config2, nbytes, trips=6)
    far = run_sharded_pingpong(
        RunConfig(nnodes=nnodes, workers_per_process=4), nbytes, nshards, trips=6
    )
    des_delta = _oneway(far["rtts"]) - _oneway(near["rtts"])
    extra_hops = _hops(bgq_partition_shape(nnodes), nnodes - 1) - _hops(
        bgq_partition_shape(2), 1
    )
    model_delta = extra_hops * DEFAULT_PARAMS.hop_latency / CYCLES_PER_US
    return CrossCheck(
        f"sharded {nnodes}n torus transit delta (us)",
        des_delta,
        model_delta,
        tolerance,
    )


def run_all() -> List[CrossCheck]:
    """All cross-checks (used by the test suite and diagnostics)."""
    return [
        smt_crosscheck(),
        pingpong_mode_crosscheck(),
        fft_speedup_crosscheck(),
        sharded_torus_crosscheck(),
    ]
