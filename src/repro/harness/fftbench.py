"""3D FFT benchmark harness (Table I).

Two engines, cross-validated where they overlap:

* **DES** — the full runtime stack executing the pencil FFT with real
  numpy transforms on up to a few dozen simulated nodes;
* **analytic model** — the same mechanisms extended to the paper's
  64-1024-node cells (:mod:`repro.perfmodel.fftmodel`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..bgq.params import CYCLES_PER_US
from ..charm import Charm
from ..converse import RunConfig
from ..fft import FFT3D
from ..perfmodel import PAPER_TABLE1, fft_step_time
from .report import format_table

__all__ = ["des_fft_step_us", "table1_model", "table1_report", "des_vs_model"]


def des_fft_step_us(
    n: int,
    nnodes: int,
    use_m2m: bool,
    workers: int = 2,
    comm_threads: int = 1,
    iterations: int = 3,
) -> float:
    """Measure one fwd+bwd FFT step on the DES (microseconds)."""
    charm = Charm(
        RunConfig(
            nnodes=nnodes,
            workers_per_process=workers,
            comm_threads_per_process=comm_threads,
        )
    )
    driver = FFT3D(
        charm, n, nchares=nnodes * workers, use_m2m=use_m2m, iterations=iterations
    )
    result = driver.run()
    return result.mean_step_time / CYCLES_PER_US


def table1_model() -> Dict[int, Dict[int, Tuple[float, float]]]:
    """Model predictions for every Table I cell (microseconds)."""
    out: Dict[int, Dict[int, Tuple[float, float]]] = {}
    for n, rows in PAPER_TABLE1.items():
        out[n] = {}
        for nodes in rows:
            out[n][nodes] = (
                fft_step_time(n, nodes, "p2p") * 1e6,
                fft_step_time(n, nodes, "m2m") * 1e6,
            )
    return out


def table1_report() -> str:
    """Paper-vs-model table for every Table I cell."""
    model = table1_model()
    rows: List[List] = []
    for n in sorted(PAPER_TABLE1, reverse=True):
        for nodes in sorted(PAPER_TABLE1[n]):
            pp, pm = PAPER_TABLE1[n][nodes]
            mp, mm = model[n][nodes]
            rows.append(
                [
                    f"{n}^3",
                    nodes,
                    pp,
                    round(mp),
                    f"{mp / pp:.2f}x",
                    pm,
                    round(mm),
                    f"{mm / pm:.2f}x",
                    f"{pp / pm:.2f}",
                    f"{mp / mm:.2f}",
                ]
            )
    return format_table(
        [
            "grid",
            "nodes",
            "p2p paper",
            "p2p model",
            "p2p m/p",
            "m2m paper",
            "m2m model",
            "m2m m/p",
            "speedup paper",
            "speedup model",
        ],
        rows,
        title="Table I: fwd+bwd 3D FFT step (us)",
    )


def des_vs_model(
    n: int = 16, nnodes: int = 8, iterations: int = 3
) -> Dict[str, Dict[str, float]]:
    """Cross-validation: DES vs analytic model on an overlapping cell.

    Absolute agreement is not expected (the model's constants target the
    paper's scale); the *m2m speedup ratio* is the validated quantity.
    """
    out: Dict[str, Dict[str, float]] = {"des": {}, "model": {}}
    for mode in ("p2p", "m2m"):
        out["des"][mode] = des_fft_step_us(
            n, nnodes, use_m2m=(mode == "m2m"), workers=1, comm_threads=1,
            iterations=iterations,
        )
        out["model"][mode] = fft_step_time(n, nnodes, mode) * 1e6
    out["des"]["speedup"] = out["des"]["p2p"] / out["des"]["m2m"]
    out["model"]["speedup"] = out["model"]["p2p"] / out["model"]["m2m"]
    return out
