"""The trace-diff regression gate: ``python -m repro.harness trace``.

Runs the small traced configurations behind the paper's trace figures
(Fig. 3 standard-vs-m2m PME, Fig. 9 comm-thread profile), exports
their artifacts to ``benchmarks/output/`` and diffs each fresh
manifest against the committed baseline in ``benchmarks/baselines/``
with :func:`repro.trace.diff.diff_manifests`.

This is to trace-shaped behavior what ``benchgate`` is to simulated
time: the DES is deterministic, so the manifests must be equal — any
counter, utilization fraction, message statistic, critical-path field
or HPM value that differs means a code change altered the simulated
machine's behavior, either intentionally (re-run with
``--write-baselines`` and commit the new baselines) or as a regression
the gate just caught.  The one exception is ``engine.events``: a
difference there alone is printed as a note and passes (event counts
sit beside the simulated observables, not among them).

A missing baseline is "could not run" (``FileNotFoundError``; the
driver exits 2), not a failure.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, List, Tuple

from ..ioutil import atomic_write_text
from ..trace.diff import diff_manifests, format_diff, load_manifest

__all__ = ["GATE_CONFIGS", "run_gate_config", "add_options", "gate"]

#: The gate's traced configurations — miniature versions of the runs
#: behind the trace figures, sized to keep the whole gate under ~1 min.
GATE_CONFIGS = tuple([
    {
        "name": "gate_fig3_std",
        "label": "gate fig3 standard PME",
        "kwargs": dict(n_atoms=256, nnodes=2, workers=2, comm_threads=1,
                       pme_every=1, use_m2m_pme=False, n_steps=3, seed=11),
    },
    {
        "name": "gate_fig3_m2m",
        "label": "gate fig3 m2m PME",
        "kwargs": dict(n_atoms=256, nnodes=2, workers=2, comm_threads=1,
                       pme_every=1, use_m2m_pme=True, n_steps=3, seed=11),
    },
    {
        "name": "gate_fig9_ct",
        "label": "gate fig9 comm threads",
        "kwargs": dict(n_atoms=256, nnodes=2, workers=4, comm_threads=2,
                       pme_every=2, use_m2m_pme=False, n_steps=3, seed=11),
    },
])


def run_gate_config(cfg: Dict, outdir: pathlib.Path) -> str:
    """Run one gate configuration; returns the fresh manifest path."""
    from .timelines import export_trace_artifacts, run_traced_namd

    result = run_traced_namd(cfg["label"], **cfg["kwargs"])
    paths = export_trace_artifacts(result, outdir, cfg["name"])
    return paths["manifest"]


def add_options(parser) -> None:
    parser.add_argument(
        "--baselines", type=pathlib.Path,
        default=pathlib.Path("benchmarks/baselines"),
        help="directory of committed baseline manifests",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=pathlib.Path("benchmarks/output"),
        help="directory for fresh artifacts",
    )
    parser.add_argument(
        "--write-baselines", action="store_true",
        help="record the fresh manifests as the new baselines and exit",
    )


def gate(args) -> Tuple[List[str], List[str], Dict[str, Any]]:
    """The ``trace`` gate: (failures, notes, report body)."""
    args.output.mkdir(parents=True, exist_ok=True)
    failures: List[str] = []
    notes: List[str] = []
    results: List[Dict] = []
    missing: List[str] = []
    for cfg in GATE_CONFIGS:
        fresh_path = run_gate_config(cfg, args.output)
        base_path = args.baselines / f"{cfg['name']}.manifest.json"
        if args.write_baselines:
            args.baselines.mkdir(parents=True, exist_ok=True)
            atomic_write_text(base_path, pathlib.Path(fresh_path).read_text())
            notes.append(f"wrote baseline {base_path}")
            continue
        if not base_path.is_file():
            missing.append(str(base_path))
            continue
        result = diff_manifests(load_manifest(str(base_path)), load_manifest(fresh_path))
        result["config"] = cfg["name"]
        results.append(result)
        notes.append(f"[{cfg['name']}]")
        notes.extend(format_diff(result).splitlines())
        if not result["ok"]:
            failures.append(
                f"{cfg['name']}: {len(result['violations'])} difference(s) vs "
                f"{base_path}"
            )
    if missing:
        raise FileNotFoundError(
            "missing baselines (run with --write-baselines and commit): "
            + ", ".join(missing)
        )
    return failures, notes, {"results": results}
