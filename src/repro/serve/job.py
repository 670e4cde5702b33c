"""Job model for the simulation-as-a-service runtime.

A *job* is one independent simulation (or model evaluation) with its
own seed, configuration, delivery-QoS choice and priority.  The
:class:`JobSpec` is the immutable request; the :class:`Job` is the
service-side record that tracks its lifecycle::

    queued -> running -> done | failed | cancelled
       \\______________________________/
              cancel() from any non-terminal state

Concurrency contract (the paper's theme, applied to the service): every
job owns a private :class:`~repro.sim.Environment`, so N jobs can
interleave on one event loop with **bit-identical** results to solo
runs — the property ``make serve-gate`` proves for interleaved
Environments and re-proves under real service load.  A per-job *session mutex*
(``Job.mutex``) serializes lifecycle transitions between the executing
worker and control-plane calls (``cancel``, shutdown), never the
stepping itself.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .task import SimTask

__all__ = [
    "JobError",
    "JobStallError",
    "JobSpec",
    "Job",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
    "COUNT_KEYS",
    "result_checksum",
]


class JobError(RuntimeError):
    """Raised for invalid job-service usage (unknown id, bad spec...)."""


class JobStallError(JobError):
    """A job's event queue drained before its done event was processed."""


# Lifecycle states (str constants keep status dicts JSON-friendly).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


#: ``result()`` keys that count what the engine did, not what the
#: simulation observed.  Reported beside the digest, never hashed: a
#: serial, sharded and served run of one workload — or the same run
#: after an event was optimised away — must have one checksum.
COUNT_KEYS = frozenset({"events", "windows"})


def result_checksum(payload: Mapping[str, Any]) -> str:
    """The one product checksum rule: a bit-exact digest over the
    simulated observables of a ``result()`` payload (final ``now`` plus
    the repr'd series), with the :data:`COUNT_KEYS` left out."""
    observed = {k: v for k, v in payload.items() if k not in COUNT_KEYS}
    blob = json.dumps(observed, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of one job.

    ``build`` constructs the job's :class:`~repro.serve.task.SimTask`
    from this spec — it runs on the executing worker, so a spec is
    cheap to submit and all simulation state is private to the worker
    that runs it.  ``seed``/``config``/``qos`` parameterize the build;
    the service itself only interprets ``priority`` (smaller runs
    first, FIFO within a priority) and the two pacing knobs.
    """

    name: str
    build: Callable[["JobSpec"], "SimTask"]
    seed: int = 0
    config: Mapping[str, Any] = field(default_factory=dict)
    qos: str = "reliable"
    priority: int = 0
    #: Engine events advanced per cooperative slice (the worker yields
    #: the event loop between slices, so this bounds scheduling latency
    #: for other jobs sharing the pool).
    slice_events: int = 256
    #: Emit a progress chunk to stream subscribers every N slices.
    stream_every: int = 4


class Job:
    """Service-side record of one submitted job."""

    def __init__(self, job_id: str, seq: int, spec: JobSpec, now_s: float) -> None:
        self.id = job_id
        #: Global submission sequence number: the priority tie-break,
        #: so equal-priority jobs run in submission order.
        self.seq = seq
        self.spec = spec
        self.state = QUEUED
        self.cancel_requested = False
        #: Session mutex: lifecycle transitions (worker) vs control
        #: plane (cancel/shutdown) — held only around state flips.
        self.mutex = asyncio.Lock()
        self.worker: Optional[int] = None
        self.error: Optional[str] = None
        self.result: Optional[Dict[str, Any]] = None
        self.checksum: Optional[str] = None
        # Host-side latency bookkeeping (service clock, seconds).
        self.submitted_s = now_s
        self.started_s: Optional[float] = None
        self.finished_s: Optional[float] = None
        #: Emitted stream chunks, in order (subscribers joining late
        #: replay this history first).
        self.chunks: List[Dict[str, Any]] = []
        self._subs: List[asyncio.Queue] = []
        self._done = asyncio.Event()

    # -- ordering (heap entries compare (priority, seq, job)) -------------
    def __lt__(self, other: "Job") -> bool:
        return (self.spec.priority, self.seq) < (other.spec.priority, other.seq)

    # -- streaming ---------------------------------------------------------
    def emit(self, chunk: Dict[str, Any]) -> None:
        """Append a chunk to the stream history and wake subscribers."""
        self.chunks.append(chunk)
        for q in self._subs:
            q.put_nowait(chunk)

    def _close_streams(self) -> None:
        for q in self._subs:
            q.put_nowait(None)
        self._subs = []

    # -- lifecycle ---------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def finalize(
        self,
        state: str,
        now_s: float,
        result: Optional[Dict[str, Any]] = None,
        checksum: Optional[str] = None,
        error: Optional[str] = None,
    ) -> bool:
        """Enter a terminal state exactly once; later calls are no-ops.

        Mirrors the ``Tracer.finish()`` contract: a cancelled job can be
        reached by both the worker and the shutdown sweep.  Returns
        whether *this* call performed the transition — the service keys
        its terminal metrics (completion counters, latency histogram)
        off that, so double finalization can never double-count.
        """
        if self.terminal:
            return False
        self.state = state
        self.finished_s = now_s
        self.result = result
        self.checksum = checksum
        self.error = error
        final = {"type": state, "job": self.id}
        if checksum is not None:
            final["checksum"] = checksum
        if result is not None:
            final["result"] = result
        if error is not None:
            final["error"] = error
        self.emit(final)
        self._close_streams()
        self._done.set()
        return True

    async def wait(self) -> "Job":
        """Block until the job reaches a terminal state."""
        await self._done.wait()
        return self

    # -- inspection --------------------------------------------------------
    def latency_s(self) -> Optional[float]:
        """Submit-to-terminal latency (None while in flight)."""
        if self.finished_s is None:
            return None
        return self.finished_s - self.submitted_s

    def wait_s(self) -> Optional[float]:
        """Queue wait: submit-to-running latency (None while queued).

        Jobs that finalize without ever running (cancelled while
        queued) keep ``started_s is None`` and report no wait — the
        per-priority wait histogram only describes jobs a worker
        actually picked up.
        """
        if self.started_s is None:
            return None
        return self.started_s - self.submitted_s

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly status record (the ``status`` API payload)."""
        return {
            "id": self.id,
            "name": self.spec.name,
            "state": self.state,
            "priority": self.spec.priority,
            "seed": self.spec.seed,
            "qos": self.spec.qos,
            "worker": self.worker,
            "cancel_requested": self.cancel_requested,
            "checksum": self.checksum,
            "error": self.error,
            "latency_s": self.latency_s(),
            "wait_s": self.wait_s(),
        }
