"""Serve-gate: concurrent Environments, then many-client load over the job service.

Both halves are checked against one solo pass — every workload run
alone through the normal ``run(until=event)`` path:

1. **Engine level.**  The isolation workloads
   (:func:`repro.harness.isogate.gate_workloads`) are built as
   independent Environments in one process and stepped in an
   adversarial round-robin interleaving (:data:`~repro.harness.isogate.STRIDES`);
   each must checksum bit-identically to its solo run, the dynamic
   proof of lint rules G1-G4.
2. **Service level.**  N clients submit simulation jobs to one
   :class:`~repro.serve.JobService` process — mixed workloads, mixed
   priorities, mixed pacing — and **every job's result checksum must
   equal the same workload run solo**.  On top of the correctness gate
   it records the service-shaped load numbers (jobs/sec, p50/p99
   submit-to-done latency, calibration-cache hit rate) that
   ``BENCH_NNNN.json`` archives as the ``serve_load`` benchmark.

Workload mix (full scale, 9 distinct jobs x :data:`REPEATS` copies):

* the six isolation workloads (Converse ping-pongs in four run modes +
  two Charm mini-NAMD runs) as :class:`~repro.serve.EnvTask` jobs;
* one sharded conservative-PDES ping-pong as a
  :class:`~repro.serve.ShardedTask` job (windowed advancement
  interleaves with single-Environment jobs on the same pool);
* two analytic perfmodel evaluations as
  :class:`~repro.serve.ModelTask` jobs — the repeated copies exercise
  the calibration cache, whose hit-path checksums must equal the
  miss-path ones.

Interleaving diversity: copies cycle ``slice_events`` through
``(32, 96, 256)`` and priorities through ``(0, 1, 2)``, so the worker
pool keeps reshuffling which job advances when — the served schedule
never degenerates into solo-equivalent back-to-back execution.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..serve import DONE, EnvTask, JobService, JobSpec, ModelTask, ShardedTask
from .isogate import STRIDES, gate_workloads, run_interleaved
from .report import format_serve_metrics
from .workloads import Instance

__all__ = [
    "SLICE_CYCLE",
    "PRIORITY_CYCLE",
    "serve_workloads",
    "run_task_solo",
    "solo_checksums",
    "run_serve_load",
    "serve_gate",
    "add_options",
    "gate",
]

#: Per-copy pacing values — distinct slice sizes shift which jobs share
#: the loop at any instant, the serve-level analogue of the interleave
#: pass's stride rotation (:data:`~repro.harness.isogate.STRIDES`).
SLICE_CYCLE: Tuple[int, ...] = (32, 96, 256)
#: Per-copy priorities: copies land in different priority bands, so the
#: heap reorders execution relative to submission order.
PRIORITY_CYCLE: Tuple[int, ...] = (0, 1, 2)
#: Worker-pool size, and copies of each workload (copies vary priority
#: and pacing through the two cycles above).
WORKERS = 4
REPEATS = 2


def _env_task_build(name: str, build_iso: Callable[[], Instance]):
    """JobSpec.build adapter: isogate workload -> EnvTask."""

    def build(spec: JobSpec) -> EnvTask:
        inst = build_iso()
        return EnvTask(
            inst.env,
            inst.done,
            on_start=inst.start,
            on_stop=inst.stop,
            result_fn=inst.result,
            label=name,
        )

    return build


def _sharded_task_build(nnodes: int, nshards: int, nbytes: int, trips: int):
    """JobSpec.build adapter: sharded ping-pong -> ShardedTask.

    The same SPMD mirrors ``make shard-gate`` runs; the task's
    ``advance()`` is one ``ShardCoordinator.advance_window()`` per slice.
    """
    from ..converse import RunConfig
    from .shardbench import build_shards
    from .workloads import build_pingpong

    def build(spec: JobSpec) -> ShardedTask:
        config = RunConfig(nnodes=nnodes, workers_per_process=2)
        dst_rank = (nnodes - 1) * config.pes_per_node
        shards, fabric = build_shards(
            nnodes, nshards,
            lambda env, machine: build_pingpong(
                config, nbytes, trips, 0, dst_rank, env, machine
            ),
        )
        root = shards[0]
        return ShardedTask(
            [s.env for s in shards],
            root.done,
            fabric,
            on_stop=lambda: [s.stop() for s in shards],
            result_fn=root.result,
            label=spec.name,
        )

    return build


def _model_task_build(nodes: int, service: Optional[JobService] = None):
    """JobSpec.build adapter: perfmodel step-time evaluation -> ModelTask.

    When a service is provided the evaluation goes through its shared
    calibration cache; repeats of the same node count are cache hits.
    """

    def build(spec: JobSpec) -> ModelTask:
        from ..namd.system import APOA1
        from ..perfmodel.namdmodel import NamdRunConfig, namd_step_time

        cache = service.cache if service is not None else None
        return ModelTask(
            namd_step_time,
            APOA1,
            nodes,
            NamdRunConfig(),
            cache=cache,
            label=spec.name,
        )

    return build


def serve_workloads(
    scale: str = "full", service: Optional[JobService] = None
) -> List[Tuple[str, Callable[[JobSpec], Any]]]:
    """(name, JobSpec.build) pairs for the serve load at ``scale``."""
    workloads: List[Tuple[str, Callable[[JobSpec], Any]]] = [
        (name, _env_task_build(name, build_iso))
        for name, build_iso in gate_workloads(scale)
    ]
    if scale == "full":
        workloads.append(
            (
                "sharded/pingpong-4n-2s",
                _sharded_task_build(nnodes=4, nshards=2, nbytes=512, trips=6),
            )
        )
        model_nodes = (256, 512)
    else:
        model_nodes = (256,)
    for nodes in model_nodes:
        workloads.append(
            (f"model/apoa1-{nodes}n", _model_task_build(nodes, service))
        )
    return workloads


def run_task_solo(task: Any) -> str:
    """Run one task to completion alone; return its checksum.

    Single-Environment tasks go through the engine's normal
    ``run(until=done)`` path — the independent oracle — while
    sharded/model tasks drive ``advance()`` back to back (their solo
    schedule), so a served checksum can only differ through
    cross-job interference inside the service.
    """
    task.start()
    if isinstance(task, EnvTask):
        task.env.run(until=task.done)
    else:
        while not task.advance(1 << 30):
            pass
    task.stop()
    return task.checksum()


def solo_checksums(
    workloads: Sequence[Tuple[str, Callable[[JobSpec], Any]]]
) -> Dict[str, str]:
    """Solo-run checksum per workload name (fresh build per run)."""
    out: Dict[str, str] = {}
    for name, build in workloads:
        spec = JobSpec(name=name, build=build)
        out[name] = run_task_solo(build(spec))
    return out


async def _drive_load(scale: str) -> Tuple[List[Any], float, JobService]:
    """Submit REPEATS x workloads to a fresh WORKERS-wide service.

    Returns (jobs, wall seconds, the closed service) — the service
    comes back so callers can read its metrics registry: the latency
    histogram *is* the source of the gate's p50/p99.
    """
    service = JobService(workers=WORKERS)
    # Built against the live service so model jobs share its
    # calibration cache (the solo oracle pass builds uncached).
    bound = serve_workloads(scale, service)
    service.start()
    t0 = time.perf_counter()
    jobs = []
    for copy in range(REPEATS):
        for i, (name, build) in enumerate(bound):
            k = copy * len(bound) + i
            spec = JobSpec(
                name=name,
                build=build,
                priority=PRIORITY_CYCLE[k % len(PRIORITY_CYCLE)],
                slice_events=SLICE_CYCLE[k % len(SLICE_CYCLE)],
                stream_every=2,
            )
            jobs.append(service.submit(spec))
    await service.join()
    wall_s = time.perf_counter() - t0
    await service.close()
    return jobs, wall_s, service


def run_serve_load(
    scale: str = "full",
    metrics_out: Optional[Path] = None,
    prom_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """The benchmark body: solo oracle pass, interleave pass, served load.

    Returns a JSON-friendly report::

        {"njobs", "workers", "wall_s", "jobs_per_sec",
         "latency_p50_s", "latency_p99_s", "cache": {...},
         "events": total engine events across jobs,
         "serve_metrics": live-metrics snapshot (JobService.metrics),
         "interleaved": {name: {"checksum", "solo", "ok"}},
         "jobs": {job_id: {"name", "state", "checksum", "solo",
                           "ok", "latency_s"}}}

    ``latency_p50_s``/``latency_p99_s`` are read from the service's
    ``serve.latency_s`` Histogram, not recomputed from the job list —
    the gate number and the live metric are one code path.
    ``metrics_out``/``prom_out`` additionally write the snapshot as
    JSON / Prometheus text exposition (atomic).
    """
    # The oracle pass builds model tasks uncached (service=None): served
    # cache hits must still match the uncached solo evaluation.
    solo = solo_checksums(serve_workloads(scale))
    interleaved = run_interleaved(
        [build for _, build in gate_workloads(scale)], STRIDES
    )

    jobs, wall_s, service = asyncio.run(_drive_load(scale))
    cache_stats = service.cache.stats()
    latency_hist = service.metrics.get("serve.latency_s")
    serve_metrics = service.metrics_snapshot()
    if metrics_out is not None:
        service.metrics.write_json(metrics_out)
    if prom_out is not None:
        service.metrics.write_prometheus(prom_out)

    report_jobs: Dict[str, Any] = {}
    events = 0
    for job in jobs:
        ok = job.state == DONE and job.checksum == solo[job.spec.name]
        if job.result:
            events += int(job.result.get("events", 0))
        report_jobs[job.id] = {
            "name": job.spec.name,
            "state": job.state,
            "checksum": job.checksum,
            "solo": solo[job.spec.name],
            "ok": ok,
            "latency_s": round(job.latency_s() or 0.0, 4),
            "error": job.error,
        }
    return {
        "scale": scale,
        "njobs": len(jobs),
        "workers": WORKERS,
        "wall_s": round(wall_s, 4),
        "jobs_per_sec": round(len(jobs) / wall_s, 2) if wall_s > 0 else 0.0,
        "latency_p50_s": round(latency_hist.percentile(0.50), 4),
        "latency_p99_s": round(latency_hist.percentile(0.99), 4),
        "cache": cache_stats,
        "events": events,
        "serve_metrics": serve_metrics,
        "interleaved": {
            name: {"checksum": cs, "solo": solo[name], "ok": cs == solo[name]}
            for name, cs in interleaved.items()
        },
        "jobs": report_jobs,
    }


def serve_gate(
    scale: str = "full",
    metrics_out: Optional[Path] = None,
    prom_out: Optional[Path] = None,
) -> Tuple[List[str], List[str], Dict[str, Any]]:
    """Run the load and gate it; returns (failures, notes, report)."""
    report = run_serve_load(scale, metrics_out=metrics_out, prom_out=prom_out)
    failures: List[str] = []
    notes: List[str] = []
    if report["njobs"] < 8:
        failures.append(
            f"load too small: {report['njobs']} jobs (< 8 concurrent jobs)"
        )
    for name, rec in report["interleaved"].items():
        if not rec["ok"]:
            failures.append(
                f"{name}: diverged under interleaving (solo {rec['solo']} != "
                f"interleaved {rec['checksum']})"
            )
    notes.append(
        f"{len(report['interleaved'])} Environments interleaved "
        f"(strides {STRIDES}), each checked against its solo run"
    )
    for job_id, rec in sorted(report["jobs"].items()):
        if rec["ok"]:
            notes.append(
                f"{job_id:28s} {rec['checksum']}  == solo  "
                f"({rec['latency_s']:.3f}s)"
            )
        elif rec["state"] != DONE:
            failures.append(
                f"{job_id}: terminal state {rec['state']!r}"
                + (f" — {rec['error']}" if rec["error"] else "")
            )
        else:
            failures.append(
                f"{job_id}: served checksum {rec['checksum']} != solo "
                f"{rec['solo']} (workload {rec['name']})"
            )
    cache = report["cache"]
    notes.append(
        f"{report['njobs']} jobs / {report['workers']} workers  "
        f"{report['jobs_per_sec']:.1f} jobs/s  "
        f"p50 {report['latency_p50_s']:.3f}s  "
        f"p99 {report['latency_p99_s']:.3f}s  "
        f"cache {cache['hits']}h/{cache['misses']}m"
    )
    notes.extend(format_serve_metrics(report.get("serve_metrics")).splitlines())
    return failures, notes, report


def add_options(parser) -> None:
    parser.add_argument(
        "--metrics-out", type=Path, default=None,
        help="write the live-metrics snapshot (JSON) to this file",
    )
    parser.add_argument(
        "--prom-out", type=Path, default=None,
        help="write the metrics as Prometheus text exposition",
    )


def gate(args) -> Tuple[List[str], List[str], Dict[str, Any]]:
    """The ``serve`` gate: (failures, notes, the full load report)."""
    for path in (args.metrics_out, args.prom_out):
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
    return serve_gate(args.scale, args.metrics_out, args.prom_out)
