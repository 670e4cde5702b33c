"""The job service: submit/status/cancel/stream over a worker pool.

:class:`JobService` is the tentpole runtime — N independent simulation
jobs multiplexed onto one process.  Architecture:

* **submit** validates the :class:`~repro.serve.job.JobSpec`, mints a
  job id, and pushes onto the :class:`~repro.serve.queue.JobQueue`
  (priority heap; FIFO within a band).
* **worker pool** — ``workers`` asyncio tasks pop jobs and execute
  their :class:`~repro.serve.task.SimTask` in *cooperative slices*:
  ``task.advance(spec.slice_events)`` then ``await asyncio.sleep(0)``,
  so concurrent jobs interleave at slice granularity while each
  Environment's internal event order is untouched (the isolation
  property makes this bit-identical to solo execution).
* **session mutex** — each job's ``mutex`` serializes lifecycle
  transitions between its executing worker and control-plane calls
  (``cancel``, ``close``); the stepping itself runs outside the lock so
  cancel latency is one slice, not one job.
* **streaming** — workers emit progress chunks (and, for traced jobs,
  incremental manifest snapshots) into the job's chunk history;
  :meth:`JobService.stream` replays history then follows live until the
  terminal chunk.
* **calibration cache** — a shared :class:`~repro.serve.cache.CalibrationCache`
  handed to model tasks so repeated perfmodel submissions are memoized.
* **retention** — the service holds a job strongly only until it
  finishes.  A finished job stays visible to ``status``, ``jobs``,
  ``join`` and ``stream`` replay for as long as some caller holds the
  :class:`~repro.serve.job.Job` that ``submit`` returned; once nothing
  does, the job is released and its id raises :class:`JobError`.  A
  long-running service therefore keeps only what its callers keep.

Wall-clock policy: the service measures *host-side* latency (queue wait,
slice scheduling) with ``time.monotonic`` — that is load telemetry, not
simulation state, and never feeds back into an Environment.  Simulated
results remain pure functions of (seed, config); ``make serve-gate``
enforces exactly that.

Operational metrics: every service owns a
:class:`~repro.obs.metrics.MetricsRegistry` (``service.metrics``) fed at
the submit/pop/slice/finalize choke points — queue depth, per-priority
queue wait, slice duration, worker busy/idle split, cancels, completion
counters by terminal state, and end-to-end latency.  The latency
histogram is *the* source for servebench's p50/p99 (the gate number and
the live metric share one code path); :meth:`JobService.metrics_snapshot`
adds the cache gauges and returns the JSON snapshot.  Catalog in
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import asyncio
import itertools
import time
import traceback
import weakref
from typing import Any, AsyncIterator, Dict, List, Optional

from ..obs.metrics import MetricsRegistry
from .cache import CalibrationCache
from .job import (
    CANCELLED,
    DONE,
    FAILED,
    RUNNING,
    Job,
    JobError,
    JobSpec,
)
from .queue import JobQueue

__all__ = ["JobService"]

#: Slice-duration buckets (seconds): one cooperative slice is a few
#: hundred engine events (~ms) up to a whole sharded window.
SLICE_BUCKETS_S = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
)

#: Per-slice event-count buckets: slice_events cycles 32..256 in the
#: servebench load, but sharded windows can run far past the bound.
SLICE_EVENT_BUCKETS = (32, 64, 128, 256, 512, 1024, 4096, 16384, 65536)


class JobService:
    """Concurrent simulation-as-a-service runtime (one process, N jobs)."""

    def __init__(self, workers: int = 4, clock=time.monotonic) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = int(workers)
        self._clock = clock
        self._queue = JobQueue()
        #: Non-terminal jobs, held strongly until :meth:`_finalize`.
        self._live: Dict[str, Job] = {}
        #: Finished jobs, kept only while a caller holds them.
        self._finished: "weakref.WeakValueDictionary[str, Job]" = (
            weakref.WeakValueDictionary()
        )
        self._seq = itertools.count()
        self._worker_tasks: List[asyncio.Task] = []
        self._started = False
        self._closed = False
        self.cache = CalibrationCache()
        #: Live operational metrics (instance-owned: concurrent
        #: services never share counters).  Instruments are declared up
        #: front so a snapshot of an idle service already carries the
        #: full catalog with zeroes.
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._m_submitted = m.counter(
            "serve.jobs.submitted", "Jobs accepted by submit()"
        )
        self._m_completed = m.counter(
            "serve.jobs.completed",
            "Jobs reaching a terminal state, by state",
            labels=("state",),
        )
        self._m_cancels = m.counter(
            "serve.cancel.requests", "cancel() calls against non-terminal jobs"
        )
        self._m_depth = m.gauge(
            "serve.queue.depth", "Runnable jobs waiting in the priority queue"
        )
        self._m_wait = m.histogram(
            "serve.queue.wait_s",
            "Submit-to-running queue wait, by priority band",
            labels=("priority",),
        )
        self._m_slice = m.histogram(
            "serve.slice.duration_s",
            "Host wall time of one cooperative task.advance() slice",
            buckets=SLICE_BUCKETS_S,
        )
        self._m_slice_events = m.histogram(
            "serve.slice.events",
            "Engine events actually advanced in one slice",
            buckets=SLICE_EVENT_BUCKETS,
        )
        self._m_latency = m.histogram(
            "serve.latency_s", "Submit-to-terminal job latency"
        )
        self._m_busy = m.counter(
            "serve.worker.busy_s", "Wall time spent executing jobs", labels=("worker",)
        )
        self._m_idle = m.counter(
            "serve.worker.idle_s", "Wall time spent waiting on the queue", labels=("worker",)
        )

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker pool (idempotent; requires a running loop)."""
        if self._started:
            return
        self._started = True
        for wid in range(self.workers):
            t = asyncio.ensure_future(self._worker(wid))
            self._worker_tasks.append(t)

    async def close(self, cancel_pending: bool = True) -> None:
        """Drain (or cancel) outstanding work and stop the pool.

        With ``cancel_pending`` (the default) queued jobs are cancelled
        immediately and running jobs get a cancel request honoured at
        their next slice boundary; otherwise the pool drains the queue
        before exiting.
        """
        if self._closed:
            return
        self._closed = True
        if cancel_pending:
            for job in list(self._live.values()):
                await self.cancel(job.id)
        self._queue.close()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks)
        self._worker_tasks = []

    # -- control plane -----------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Queue one job; returns its service-side record immediately."""
        if self._closed:
            raise JobError("service is closed")
        if not callable(spec.build):
            raise JobError(f"job {spec.name!r}: spec.build is not callable")
        if spec.slice_events < 1:
            raise JobError(f"job {spec.name!r}: slice_events must be >= 1")
        seq = next(self._seq)
        job = Job(f"{spec.name}-{seq:04d}", seq, spec, self._clock())
        self._live[job.id] = job
        job.emit({"type": "queued", "job": job.id, "priority": spec.priority})
        self._queue.push(job)
        self._m_submitted.inc()
        self._m_depth.set(len(self._queue))
        return job

    def _known(self) -> List[Job]:
        return [*self._live.values(), *self._finished.values()]

    def _get(self, job_id: str) -> Job:
        job = self._live.get(job_id) or self._finished.get(job_id)
        if job is None:
            raise JobError(
                f"unknown job id {job_id!r}: never submitted, or finished and "
                "released (a finished job is kept only while a caller holds "
                "the Job that submit() returned)"
            )
        return job

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._get(job_id).snapshot()

    def jobs(self) -> List[Dict[str, Any]]:
        """Snapshots of every live or still-held job, in submission order."""
        return [j.snapshot() for j in sorted(self._known(), key=lambda j: j.seq)]

    async def cancel(self, job_id: str) -> bool:
        """Request cancellation; True if the job will not produce a result.

        Queued jobs finalize immediately (the queue discards them
        lazily); running jobs are flagged and their worker honours the
        flag at the next slice boundary.  Terminal jobs return False.
        """
        job = self._get(job_id)
        async with job.mutex:
            if job.terminal:
                return False
            job.cancel_requested = True
            self._m_cancels.inc()
            if job.state == RUNNING:
                return True  # the executing worker owns the teardown
            self._finalize(job, CANCELLED, error="cancelled while queued")
            return True

    async def join(self, *job_ids: str) -> List[Job]:
        """Wait for the given jobs (every live or still-held job when none named)."""
        targets = [self._get(j) for j in job_ids] if job_ids else self._known()
        # One wait at a time: a gather future's result list would keep
        # every target alive until the caller next suspends.
        for job in targets:
            await job.wait()
        return targets

    async def stream(self, job_id: str) -> AsyncIterator[Dict[str, Any]]:
        """Yield the job's chunks: history first, then live to terminal."""
        job = self._get(job_id)
        # Snapshot history, then subscribe under the mutex so no chunk
        # lands in the gap between replay and subscription.
        async with job.mutex:
            history = list(job.chunks)
            live: Optional[asyncio.Queue] = None
            if not job.terminal:
                live = asyncio.Queue()
                job._subs.append(live)
        for chunk in history:
            yield chunk
        if live is None:
            return
        while True:
            chunk = await live.get()
            if chunk is None:
                return
            yield chunk

    # -- metrics -----------------------------------------------------------
    def _finalize(self, job: Job, state: str, **kw: Any) -> None:
        """Terminal transition plus metrics, in one place.

        Callers hold ``job.mutex``.  The completion counter and latency
        histogram key off :meth:`Job.finalize`'s return value, so a job
        racing two finalizers (worker vs shutdown sweep) is counted by
        whichever call actually performed the transition — never both.
        The transition also moves the job from the service's strong hold
        to its weak one (the retention rule in the module docstring).
        """
        if job.finalize(state, self._clock(), **kw):
            del self._live[job.id]
            self._finished[job.id] = job
            self._m_completed.labels(state=state).inc()
            latency = job.latency_s()
            if latency is not None:
                self._m_latency.observe(latency)

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Refresh the sampled gauges and return the registry snapshot.

        Queue depth and the calibration-cache gauges are *read* here
        rather than pushed from the cache (the cache predates the
        metrics layer and stays dependency-free); everything else in
        the snapshot was recorded live at the choke points.
        """
        self._m_depth.set(len(self._queue))
        stats = self.cache.stats()
        m = self.metrics
        m.gauge("serve.cache.entries", "Calibration cache entries").set(
            stats["entries"]
        )
        m.gauge("serve.cache.hits", "Calibration cache hits").set(stats["hits"])
        m.gauge("serve.cache.misses", "Calibration cache misses").set(
            stats["misses"]
        )
        m.gauge("serve.cache.hit_rate", "Calibration cache hit ratio").set(
            stats["hit_rate"]
        )
        return m.snapshot()

    # -- data plane --------------------------------------------------------
    async def _worker(self, wid: int) -> None:
        idle = self._m_idle.labels(worker=wid)
        busy = self._m_busy.labels(worker=wid)
        while True:
            t0 = self._clock()
            job = await self._queue.pop()
            t1 = self._clock()
            idle.inc(t1 - t0)
            if job is None:
                return
            self._m_depth.set(len(self._queue))
            await self._execute(job, wid)
            # Drop the worker's reference before the next pop: a finished
            # job is kept only by its callers.
            job = None
            busy.inc(self._clock() - t1)

    async def _execute(self, job: Job, wid: int) -> None:
        spec = job.spec
        async with job.mutex:
            if job.terminal:
                return
            if job.cancel_requested:
                self._finalize(job, CANCELLED, error="cancelled while queued")
                return
            job.state = RUNNING
            job.worker = wid
            job.started_s = self._clock()
        self._m_wait.labels(priority=spec.priority).observe(job.wait_s())
        job.emit({"type": "running", "job": job.id, "worker": wid})

        task = None
        try:
            task = spec.build(spec)
            task.start()
            slices = 0
            while True:
                if job.cancel_requested:
                    task.stop()
                    async with job.mutex:
                        self._finalize(
                            job, CANCELLED, error="cancelled while running"
                        )
                    return
                ev0 = task.events()
                s0 = self._clock()
                finished = task.advance(spec.slice_events)
                self._m_slice.observe(self._clock() - s0)
                self._m_slice_events.observe(task.events() - ev0)
                if finished:
                    break
                slices += 1
                if spec.stream_every and slices % spec.stream_every == 0:
                    chunk = {
                        "type": "progress",
                        "job": job.id,
                        "queue_depth": len(self._queue),
                        **task.progress(),
                    }
                    manifest = task.manifest()
                    if manifest is not None:
                        chunk["manifest"] = manifest
                    job.emit(chunk)
                # The cooperative yield: other jobs' slices run here.
                await asyncio.sleep(0)
            task.stop()
            result = task.result()
            checksum = task.checksum()
            async with job.mutex:
                self._finalize(job, DONE, result=result, checksum=checksum)
        except Exception as exc:
            if task is not None:
                try:
                    task.stop()
                except Exception:
                    pass  # teardown best-effort; the original error wins
            err = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            async with job.mutex:
                self._finalize(job, FAILED, error=err)
