"""Simulation-as-a-service: a concurrent job runtime over the engine.

The paper's theme — many independent message-driven contexts multiplexed
onto shared execution resources — applied to the reproduction's own
tooling: one process runs N independent simulation jobs concurrently on
an asyncio event loop, each job a private deterministic
:class:`~repro.sim.Environment` advanced in cooperative slices through
the public ``run_events()``/``peek()`` surface.  The whole design leans on the
isolation property the serve gate's interleave pass proves: interleaved
execution is bit-identical to solo execution, so serving adds
throughput without touching results.  ``make serve-gate``
(:mod:`repro.harness.servebench`) re-proves that end to end under a
synthetic many-client load.

Public surface:

* :class:`JobService` — submit/status/cancel/stream over a worker pool;
* :class:`JobSpec` / :class:`Job` — the request and its lifecycle record;
* :class:`EnvTask` / :class:`ShardedTask` / :class:`ModelTask` — job
  bodies (single Environment, windowed-PDES shard group, pure model);
* :class:`CalibrationCache` — memoizes pure perfmodel evaluations;
* :class:`JobQueue` — the priority heap (exposed for tests/tools).
"""

from .cache import CalibrationCache
from .job import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobError,
    JobSpec,
    JobStallError,
    result_checksum,
)
from .manager import JobService
from .queue import JobQueue
from .task import EnvTask, ModelTask, ShardedTask, SimTask

__all__ = [
    "CANCELLED",
    "CalibrationCache",
    "DONE",
    "EnvTask",
    "FAILED",
    "Job",
    "JobError",
    "JobQueue",
    "JobService",
    "JobSpec",
    "JobStallError",
    "ModelTask",
    "QUEUED",
    "RUNNING",
    "ShardedTask",
    "SimTask",
    "TERMINAL_STATES",
    "result_checksum",
]
