"""Benchmark gate: the repo's persistent simulated-time trajectory.

The DES is deterministic, so every gated workload has exact
simulated-time observables; this gate records them, every PR, and
fails on any drift.  Host time is *not* judged here — events/sec on a
shared box moves more between two runs of one commit than the effects
worth gating, and reads backwards for a change that schedules fewer
events at identical simulated times.  ``python3 -m bench`` (see
``bench/README.md``) is the host-time record.

Three serial benchmarks (chosen to cover the paths the paper cares
about), recorded at every scale:

* ``pingpong``     — Converse-level SMP ping-pong (Fig. 4 machinery:
  lockless queues, PAMI eager path, torus links);
* ``fig3_m2m``     — the Fig. 3 many-to-many PME mini-NAMD run (the
  densest message-rate workload in the suite);
* ``fig10_window`` — the Fig. 10 std-vs-m2m PME window experiment
  (windowed steps-completed comparison, both PME paths).

Each benchmark records:

* ``sim_times`` — exact ``repr`` of every simulated-time observable
  (final clock, per-step boundaries, window step counts), folded into a
  ``checksum`` (sha256).  Engine work must be **cycle-for-cycle
  neutral**: any checksum drift against the latest prior record of the
  same scale is a hard failure;
* ``wall_s`` / ``events`` / ``events_per_sec`` — host-side engine
  throughput as measured, recorded but never gated.

Results are written to ``BENCH_NNNN.json`` at the repo root.  See
EXPERIMENTS.md ("Benchmark gate") for the schema and workflow, and
``make bench-gate`` for the entry point.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..converse import RunConfig
from .pingpong import pingpong_run
from .workloads import (
    namd_run,
    namd_sim_times,
    pingpong_sim_times,
    window_sim_times,
)

__all__ = [
    "GATE_BENCHMARKS",
    "bench_pingpong",
    "bench_fig3_m2m",
    "bench_fig10_window",
    "bench_pingpong_512n_sharded",
    "bench_fig3_m2m_128n_sharded",
    "bench_serve_load",
    "gate_runners",
    "run_gate",
    "compare_records",
    "find_bench_files",
    "next_bench_path",
    "load_record",
    "latest_record",
    "add_options",
    "gate",
]

#: Benchmarks the gate runs, in order.
GATE_BENCHMARKS: Tuple[str, ...] = ("pingpong", "fig3_m2m", "fig10_window")

_BENCH_RE = re.compile(r"^BENCH_(\d{4})\.json$")


def _checksum(sim_times: Dict[str, str]) -> str:
    """sha256 over the sorted (name, repr) simulated-time observables."""
    blob = "\n".join(f"{k}={v}" for k, v in sorted(sim_times.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


def _record(wall_s: float, events: int, sim_times: Dict[str, str], **metrics) -> dict:
    return {
        "wall_s": round(wall_s, 4),
        "events": events,
        "events_per_sec": round(events / wall_s, 1) if wall_s > 0 else 0.0,
        "sim_times": sim_times,
        "checksum": _checksum(sim_times),
        "metrics": metrics,
    }


# -- benchmark runners -----------------------------------------------------

def bench_pingpong(nbytes: int = 512, trips: int = 1500) -> dict:
    """Converse SMP ping-pong between two nodes (Fig. 4 machinery)."""
    run = pingpong_run(RunConfig(nnodes=2, workers_per_process=4), nbytes, trips=trips)
    return _record(
        run["wall_s"], run["events"], pingpong_sim_times(run),
        oneway_us=round(run["oneway_us"], 4),
    )


def bench_fig3_m2m(
    n_steps: int = 3, n_atoms: int = 1372, nnodes: int = 4, workers: int = 2,
    comm_threads: int = 2,
) -> dict:
    """The Fig. 3 many-to-many PME run — the densest gated benchmark."""
    run = namd_run(True, n_steps, n_atoms, nnodes, workers, comm_threads)
    return _record(run["wall_s"], run["events"], namd_sim_times(run))


def bench_fig10_window(
    n_steps: int = 4, n_atoms: int = 1372, nnodes: int = 2, workers: int = 2,
    comm_threads: int = 1,
) -> dict:
    """Fig. 10: steps completed in a fixed window, std vs m2m PME."""
    std = namd_run(False, n_steps, n_atoms, nnodes, workers, comm_threads)
    m2m = namd_run(True, n_steps, n_atoms, nnodes, workers, comm_threads)
    return _record(
        std["wall_s"] + m2m["wall_s"],
        std["events"] + m2m["events"],
        window_sim_times(std, m2m),
    )


def bench_pingpong_512n_sharded(trips: int = 50) -> dict:
    """Cross-machine ping-pong over a really-simulated 512-node torus.

    Runs on the sharded conservative-PDES engine (4 shards), corner to
    corner across the 4x4x4x4x2 torus — a node count the repo
    previously only reached through the analytic performance model
    (EXPERIMENTS.md, figure->artifact table).
    """
    from .shardbench import run_sharded_pingpong

    run = run_sharded_pingpong(
        RunConfig(nnodes=512, workers_per_process=4), 512, 4, trips=trips
    )
    return _record(
        run["wall_s"], run["events"], pingpong_sim_times(run), nshards=4, nnodes=512
    )


def bench_fig3_m2m_128n_sharded(n_steps: int = 2) -> dict:
    """The Fig. 3 m2m PME mini-NAMD run on 128 really-simulated nodes.

    Same workload as ``fig3_m2m`` but at the paper's scale regime
    (128 nodes / 512 worker threads), executed by 4 PDES shards.
    """
    from .shardbench import run_sharded_namd

    run = run_sharded_namd(True, n_steps, 1372, 128, 2, 2, 4)
    return _record(
        run["wall_s"], run["events"], namd_sim_times(run), nshards=4, nnodes=128
    )


def bench_serve_load() -> dict:
    """The simulation-as-a-service load (``make serve-gate``'s workload).

    ``sim_times`` holds the per-job result checksums — deterministic
    and machine-portable, so the record gates on them like any
    simulated-time observable.  Jobs/sec and p50/p99 latency are
    host-load-dependent and land in ``metrics`` (reported, never gated).
    Refuses to record at all if a served checksum differs from solo.
    """
    from .servebench import serve_gate

    failures, _, report = serve_gate("full")
    if failures:
        raise RuntimeError("serve load diverged: " + "; ".join(failures))
    return _record(
        report["wall_s"],
        report["events"],
        {job_id: rec["checksum"] for job_id, rec in sorted(report["jobs"].items())},
        njobs=report["njobs"],
        workers=report["workers"],
        jobs_per_sec=report["jobs_per_sec"],
        latency_p50_s=report["latency_p50_s"],
        latency_p99_s=report["latency_p99_s"],
        cache_hits=report["cache"]["hits"],
        cache_misses=report["cache"]["misses"],
    )


# -- gate orchestration ----------------------------------------------------

def gate_runners(scale: str = "full") -> Dict[str, "Callable[[], dict]"]:
    """Zero-arg runners for the three :data:`GATE_BENCHMARKS`, by name.

    The single source of truth for what "run ``pingpong`` at ``scale``"
    means: :func:`run_gate` composes these into the BENCH record,
    and ``repro.harness.obsgate`` replays the *same* runners off/on
    under profiling — so the obs-gate's cycle-neutrality claim is about
    exactly the workloads the BENCH trajectory gates, not lookalikes.
    """
    if scale == "tiny":
        return {
            "pingpong": lambda: bench_pingpong(trips=6),
            "fig3_m2m": lambda: bench_fig3_m2m(
                n_steps=1, n_atoms=256, nnodes=2, workers=1, comm_threads=1
            ),
            "fig10_window": lambda: bench_fig10_window(
                n_steps=1, n_atoms=256, nnodes=1, workers=2, comm_threads=1
            ),
        }
    return {
        "pingpong": bench_pingpong,
        "fig3_m2m": bench_fig3_m2m,
        "fig10_window": bench_fig10_window,
    }


def run_gate(scale: str = "full") -> Dict[str, dict]:
    """Run every gated benchmark; ``scale="tiny"`` for fast self-tests.

    Full scale additionally records the two large-node sharded-engine
    runs (the paper's 128-512 node regime, simulated for real rather
    than through the analytic model — docs/SCALING.md) and the served
    load.
    """
    out = {name: run() for name, run in gate_runners(scale).items()}
    if scale != "tiny":
        out["pingpong_512n_sharded"] = bench_pingpong_512n_sharded()
        out["fig3_m2m_128n_sharded"] = bench_fig3_m2m_128n_sharded()
        out["serve_load"] = bench_serve_load()
    return out


def find_bench_files(root: pathlib.Path) -> List[pathlib.Path]:
    """All BENCH_NNNN.json files at ``root``, ordered by number."""
    hits = []
    for p in root.iterdir():
        m = _BENCH_RE.match(p.name)
        if m:
            hits.append((int(m.group(1)), p))
    return [p for _, p in sorted(hits)]


def next_bench_path(root: pathlib.Path) -> pathlib.Path:
    existing = find_bench_files(root)
    n = 1
    if existing:
        n = int(_BENCH_RE.match(existing[-1].name).group(1)) + 1
    return root / f"BENCH_{n:04d}.json"


def load_record(path: pathlib.Path) -> dict:
    with open(path) as f:
        return json.load(f)


def latest_record(
    root: pathlib.Path, scale: str, exclude: Optional[pathlib.Path] = None
) -> Optional[Tuple[pathlib.Path, dict]]:
    """Newest ``BENCH_NNNN.json`` at ``root`` recorded at ``scale``.

    Observables are only comparable within one scale, and a tiny-scale
    record left beside the committed full-scale trajectory (a self-test
    run in the repo root) must neither become the next full run's
    baseline nor hide the real one.  ``exclude`` skips the file about
    to be written.  ``None`` when no such record exists.
    """
    for path in reversed(find_bench_files(root)):
        if exclude is not None and path.resolve() == exclude.resolve():
            continue
        record = load_record(path)
        if record.get("scale") == scale:
            return path, record
    return None


def compare_records(baseline: dict, current: dict) -> Tuple[List[str], List[str]]:
    """Compare two gate records; returns (failures, notes).

    Any simulated-time checksum difference is a hard failure.
    Checksums are portable across machines, so CI and the dev box gate
    identically; the records' wall-clock fields are not compared.
    """
    failures: List[str] = []
    notes: List[str] = []
    base_b = baseline.get("benchmarks", {})
    for name, c in current.get("benchmarks", {}).items():
        if name not in base_b:
            notes.append(f"{name}: no baseline entry (new benchmark)")
            continue
        b = base_b[name]
        if b["checksum"] != c["checksum"]:
            drift = [
                k
                for k in sorted(set(b["sim_times"]) | set(c["sim_times"]))
                if b["sim_times"].get(k) != c["sim_times"].get(k)
            ]
            failures.append(
                f"{name}: simulated-time checksum drift (HARD FAIL) — "
                f"engine changes must be cycle-for-cycle neutral; "
                f"diverging observables: {', '.join(drift) or 'checksum only'}"
            )
    return failures, notes


def add_options(parser) -> None:
    parser.add_argument(
        "--root", type=pathlib.Path, default=pathlib.Path("."),
        help="directory holding BENCH_*.json (default: cwd); without "
        "--json-out the record goes to the next BENCH_NNNN.json there",
    )


def gate(args) -> Tuple[List[str], List[str], Dict[str, Any]]:
    """The ``bench`` gate: (failures, notes, the BENCH record).

    The record *is* the gate report, so the driver's ``--json-out``
    default is resolved here: the next free ``BENCH_NNNN.json``.
    """
    root = args.root.resolve()
    if args.json_out is None:
        args.json_out = next_bench_path(root)
    prior = latest_record(root, args.scale, exclude=args.json_out)

    benchmarks = run_gate(scale=args.scale)
    record = {
        "schema": 1,
        "id": args.json_out.stem,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scale": args.scale,
        "benchmarks": benchmarks,
    }
    notes = [
        f"{name:22s} {b['events']:>9,d} events  {b['wall_s']:>7.2f}s  "
        f"{b['events_per_sec']:>10,.0f} ev/s  checksum {b['checksum'][:12]}"
        for name, b in benchmarks.items()
    ]
    if prior is None:
        notes.append(
            f"no prior {args.scale}-scale BENCH_*.json under {root} — "
            "recorded baseline, nothing to gate"
        )
        return [], notes, record
    baseline_path, baseline = prior
    failures, compared = compare_records(baseline, record)
    notes.append(f"compared against {baseline_path.name}")
    return failures, notes + compared, record
