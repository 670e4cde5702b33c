"""Trace-based figures: timelines and utilization profiles (Figs. 3, 9, 10).

These run mini-NAMD on the DES with the unified tracer
(:mod:`repro.trace`) enabled and report what the paper's Projections
screenshots show:

* Fig. 3 / Fig. 10 — per-thread timelines of PME steps with standard
  (p2p) vs many-to-many PME, and the number of timesteps completing in
  a fixed simulated window;
* Fig. 9 — binned CPU-utilization profile with and without
  communication threads.

:func:`render_ascii_timeline` and :func:`utilization_profile` turn any
:class:`~repro.trace.Tracer` into those two shapes.  Activity
categories follow the paper's colour legend: ``integrate`` (red),
``nonbonded`` (purple), ``pme``/``fft`` (green), ``comm``/``sched``
(messaging and runtime overhead) and ``idle`` (white).

Each traced run carries its :class:`~repro.trace.Tracer`, so beyond the
ASCII renderings a run can be exported with
:func:`export_trace_artifacts` — a Chrome ``trace_event`` JSON (open in
``chrome://tracing`` or https://ui.perfetto.dev), a per-PE utilization
table, and a machine-readable manifest — which is what the benchmark
suite archives under ``benchmarks/output/`` for every trace figure.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..bgq.params import CYCLES_PER_US
from ..converse import RunConfig
from ..trace import (
    Tracer,
    format_utilization_table,
    run_manifest,
    write_chrome_trace,
    write_run_manifest,
)
from .workloads import build_namd, run_instance

__all__ = [
    "TraceResult",
    "run_traced_namd",
    "export_trace_artifacts",
    "fig9_commthread_profile",
    "fig10_pme_window",
    "fig3_pme_timeline",
    "render_ascii_timeline",
    "utilization_profile",
]


def utilization_profile(
    tracer: Tracer,
    bins: int = 100,
    categories: Optional[Sequence[str]] = None,
) -> Dict[str, np.ndarray]:
    """Bin per-category busy time into a time profile (Fig. 9 shape).

    Returns a mapping ``category -> array(bins)`` of the fraction of
    track-time spent in that category in each bin, plus ``"_edges"``
    with the bin edges.
    """
    t0, t1 = tracer.time_span()
    if t1 <= t0:
        raise ValueError("empty timeline")
    edges = np.linspace(t0, t1, bins + 1)
    ntracks = len(tracer.tracks()) or 1
    width = (t1 - t0) / bins
    if categories is None:
        categories = tracer.categories()
    out: Dict[str, np.ndarray] = {c: np.zeros(bins) for c in categories}
    for span in tracer.spans:
        if span.category not in out:
            continue
        lo = max(int(np.searchsorted(edges, span.start, side="right")) - 1, 0)
        hi = min(int(np.searchsorted(edges, span.end, side="left")), bins)
        for b in range(lo, hi):
            overlap = min(span.end, edges[b + 1]) - max(span.start, edges[b])
            if overlap > 0:
                out[span.category][b] += overlap
    for c in categories:
        out[c] /= width * ntracks
    out["_edges"] = edges
    return out


_GLYPHS = MappingProxyType({
    "integrate": "R",  # red in the paper
    "nonbonded": "P",  # purple
    "bonded": "B",
    "pme": "G",  # green
    "fft": "G",
    "comm": "c",
    "sched": "s",
    "alloc": "a",
    "idle": ".",
})


def render_ascii_timeline(
    tracer: Tracer,
    width: int = 80,
    tracks: Optional[Iterable[int]] = None,
) -> str:
    """Render per-track timelines as ASCII art (one row per track).

    This is the textual stand-in for the paper's Projections timeline
    screenshots (Figs. 3 and 10); the interactive equivalent is
    :func:`repro.trace.write_chrome_trace` + Perfetto.
    """
    t0, t1 = tracer.time_span()
    if t1 <= t0:
        return "(empty timeline)"
    sel = sorted(tracks) if tracks is not None else tracer.tracks()
    scale = width / (t1 - t0)
    rows = []
    for track in sel:
        row = ["."] * width
        for span in tracer.spans:
            if span.track != track:
                continue
            a = int((span.start - t0) * scale)
            b = max(a + 1, int(round((span.end - t0) * scale)))
            g = _GLYPHS.get(span.category, "?")
            for i in range(a, min(b, width)):
                row[i] = g
        busy, useful = tracer.utilization(track=track)
        rows.append(f"T{track:3d} |{''.join(row)}| ({busy * 100:.0f}%,{useful * 100:.0f}%)")
    legend = "legend: R=integrate P=nonbonded G=pme/fft c=comm s=sched .=idle"
    return "\n".join(rows + [legend])


@dataclass
class TraceResult:
    """One traced mini-NAMD run."""

    label: str
    n_steps: int
    total_us: float
    us_per_step: float
    busy_fraction: float
    useful_fraction: float
    timeline_ascii: str
    profile: Dict[str, np.ndarray]
    step_times_us: Tuple[float, ...]
    #: The run's tracer: spans, counters, and exporter input.
    tracer: Optional[Tracer] = None
    #: Final counter totals (messages, bytes, polls, L2 ops...).
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def utilization_table(self) -> str:
        """Per-PE busy/useful table (µs per category)."""
        return format_utilization_table(
            self.tracer, scale=1.0 / CYCLES_PER_US, unit="us"
        )

    def manifest(self, **meta) -> dict:
        """Machine-readable run record (see repro.trace.run_manifest)."""
        return run_manifest(
            self.tracer,
            label=self.label,
            scale=1.0 / CYCLES_PER_US,
            time_unit="us",
            n_steps=self.n_steps,
            us_per_step=self.us_per_step,
            **meta,
        )


def run_traced_namd(
    label: str,
    n_atoms: int = 2048,
    nnodes: int = 2,
    workers: int = 4,
    comm_threads: int = 0,
    pme_every: int = 2,
    use_m2m_pme: bool = False,
    n_steps: int = 4,
    seed: int = 17,
    timeline_threads: int = 4,
    cutoff: float = 7.5,
) -> TraceResult:
    """Run mini-NAMD with the tracer enabled; returns trace metrics.

    The default cutoff is shortened (7.5 A vs the production 12 A) so
    the miniature run lands in the paper's fine-grained regime — many
    patches and computes per PE, messaging a large share of the step —
    which is where the comm-thread and m2m effects of Figs. 3/9/10
    live.
    """
    inst = build_namd(
        RunConfig(
            nnodes=nnodes,
            workers_per_process=workers,
            comm_threads_per_process=comm_threads,
            trace=True,
        ),
        n_atoms, n_steps, use_m2m_pme, seed, cutoff=cutoff, pme_every=pme_every,
    )
    run_instance(inst)
    tracer: Tracer = inst.env.tracer
    tracer.finish()
    busy, useful = tracer.utilization()
    total = inst.env.now
    step_times = tuple(t / CYCLES_PER_US for t in inst.observe()["steps"])
    return TraceResult(
        label=label,
        n_steps=n_steps,
        total_us=total / CYCLES_PER_US,
        us_per_step=total / CYCLES_PER_US / n_steps,
        busy_fraction=busy,
        useful_fraction=useful,
        timeline_ascii=render_ascii_timeline(
            tracer, width=100, tracks=tracer.tracks()[:timeline_threads]
        ),
        profile=utilization_profile(tracer, bins=40),
        step_times_us=step_times,
        tracer=tracer,
        counters=dict(tracer.counters),
    )


def export_trace_artifacts(
    result: TraceResult, outdir, basename: str, **meta
) -> Dict[str, str]:
    """Write the Chrome trace + manifest for one traced run.

    Returns ``{"chrome": path, "manifest": path}`` — the artifact paths
    cited in EXPERIMENTS.md's figure→benchmark→trace table.
    """
    if result.tracer is None:
        raise ValueError(f"run {result.label!r} carries no tracer")
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    chrome = write_chrome_trace(
        result.tracer,
        str(outdir / f"{basename}.trace.json"),
        scale=1.0 / CYCLES_PER_US,
        process_name=result.label,
        metadata={"label": result.label, "n_steps": result.n_steps, **meta},
    )
    manifest = write_run_manifest(
        result.tracer,
        str(outdir / f"{basename}.manifest.json"),
        label=result.label,
        scale=1.0 / CYCLES_PER_US,
        time_unit="us",
        n_steps=result.n_steps,
        us_per_step=result.us_per_step,
        **meta,
    )
    return {"chrome": chrome, "manifest": manifest}


def fig9_commthread_profile(
    n_atoms: int = 1372, nnodes: int = 2, n_steps: int = 3
) -> Dict[str, TraceResult]:
    """ApoA1-like utilization profile with and without comm threads.

    The paper's Fig. 9 point: communication threads raise utilization
    and fit more timestep peaks into the same wall-clock window.
    """
    without = run_traced_namd(
        "no comm threads", n_atoms=n_atoms, nnodes=nnodes,
        workers=4, comm_threads=0, n_steps=n_steps,
    )
    with_ct = run_traced_namd(
        "with comm threads", n_atoms=n_atoms, nnodes=nnodes,
        workers=4, comm_threads=2, n_steps=n_steps,
    )
    return {"without": without, "with": with_ct}


def fig10_pme_window(
    n_atoms: int = 1372,
    nnodes: int = 4,
    n_steps: int = 8,
    workers: int = 2,
    comm_threads: int = 2,
    pme_every: int = 1,
    window_us: Optional[float] = None,
) -> Dict[str, object]:
    """Standard vs many-to-many PME: steps completed in a fixed window.

    The paper's Fig. 10 counts nine timesteps with m2m PME vs seven
    with standard PME in a 15 ms window on 1024 nodes; the miniature
    reproduction uses a PME-heavy configuration (few workers per node,
    PME every step) and counts steps inside a window sized to 3/4 of
    the standard run.
    """
    std = run_traced_namd(
        "standard PME (p2p)", n_atoms=n_atoms, nnodes=nnodes,
        workers=workers, comm_threads=comm_threads, pme_every=pme_every,
        use_m2m_pme=False, n_steps=n_steps,
    )
    m2m = run_traced_namd(
        "optimized PME (m2m)", n_atoms=n_atoms, nnodes=nnodes,
        workers=workers, comm_threads=comm_threads, pme_every=pme_every,
        use_m2m_pme=True, n_steps=n_steps,
    )
    if window_us is None:
        window_us = std.total_us * 0.75
    steps_std = sum(1 for t in std.step_times_us if t <= window_us)
    steps_m2m = sum(1 for t in m2m.step_times_us if t <= window_us)
    return {
        "std": std,
        "m2m": m2m,
        "window_us": window_us,
        "steps_in_window_std": steps_std,
        "steps_in_window_m2m": steps_m2m,
    }


def fig3_pme_timeline(n_atoms: int = 1372, nnodes: int = 4) -> Dict[str, object]:
    """Timelines of PME-heavy steps, p2p vs m2m (Fig. 3).

    Returns the ASCII renderings plus the full traced runs (so callers
    can export the interactive Chrome/Perfetto artifacts).
    """
    result = fig10_pme_window(n_atoms=n_atoms, nnodes=nnodes, n_steps=3)
    return {
        "standard": result["std"].timeline_ascii,
        "optimized": result["m2m"].timeline_ascii,
        "std_run": result["std"],
        "m2m_run": result["m2m"],
    }
