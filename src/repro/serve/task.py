"""Executable units the worker pool advances cooperatively.

A :class:`SimTask` is the bridge between the asyncio service and the
(synchronous, deterministic) simulation engine: the worker repeatedly
calls :meth:`SimTask.advance`, which runs a bounded amount of work and
returns whether the task finished; between calls the worker yields the
event loop, so N tasks interleave.  Three implementations cover the
service's job classes:

* :class:`EnvTask` — one :class:`~repro.sim.Environment` advanced
  through the **public** ``peek()``/``step()``/``Event.processed``
  surface only (lint rule P3; the exact oracle ``make iso-gate``
  validates, so interleaved execution is bit-identical to solo);
* :class:`ShardedTask` — a windowed conservative-PDES run
  (:mod:`repro.sim.shard`): each ``advance()`` executes one
  barrier-to-barrier window across all shard Environments;
* :class:`ModelTask` — a pure analytic-model evaluation
  (:mod:`repro.perfmodel`), optionally memoized through the service's
  :class:`~repro.serve.cache.CalibrationCache`.

Tasks may carry a :class:`~repro.trace.Tracer`; the task's
:meth:`manifest` snapshots it through the standard exporter while the
run is live (incremental result streaming) and :meth:`stop` finishes it
exactly once (the finish() idempotence contract).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence

from ..sim import Environment, Event
from ..sim.shard import ShardCoordinator, ShardStallError
from .job import JobStallError, result_checksum

__all__ = ["SimTask", "EnvTask", "ShardedTask", "ModelTask"]

_INF = float("inf")


class SimTask(Protocol):
    """What the worker pool needs from an executable job body."""

    def start(self) -> None:
        """Bring up runtime loops; called once before the first advance."""

    def advance(self, max_events: int) -> bool:
        """Run a bounded amount of work; True when the task completed."""

    def stop(self) -> None:
        """Tear down runtime loops; idempotent, safe mid-run (cancel)."""

    def result(self) -> Dict[str, Any]:
        """Final observables (repr'd) plus the ``events``/``windows`` counts."""

    def progress(self) -> Dict[str, Any]:
        """Cheap in-flight observables for stream chunks."""

    def events(self) -> int:
        """Cumulative engine events executed so far (0 for model jobs).

        The service reads this before/after each slice to feed the
        per-slice event-throughput histogram — ``advance(max_events)``
        is a *bound*, not a promise (sharded tasks run whole windows),
        so the metric reports what actually happened.
        """

    def checksum(self) -> str:
        """Bit-exact digest of the completed run's simulated observables."""

    def manifest(self) -> Optional[Dict[str, Any]]:
        """Trace-manifest snapshot (None when untraced)."""


class EnvTask:
    """A single-Environment simulation advanced via peek()/step().

    Exactly the iso-gate execution model: stepping stops the moment
    ``done`` is processed — the same stopping point as
    ``env.run(until=done)`` — so the checksum can differ from a solo
    run only through cross-instance interference, which the G/S lint
    families and the iso-gate exclude.
    """

    def __init__(
        self,
        env: Environment,
        done: Event,
        *,
        on_start: Optional[Callable[[], None]] = None,
        on_stop: Optional[Callable[[], None]] = None,
        result_fn: Optional[Callable[[], Dict[str, Any]]] = None,
        tracer: Any = None,
        label: str = "sim",
    ) -> None:
        self.env = env
        self.done = done
        self._on_start = on_start
        self._on_stop = on_stop
        self._result_fn = result_fn
        self.tracer = tracer
        self.label = label
        self._stopped = False

    def start(self) -> None:
        if self._on_start is not None:
            self._on_start()

    def advance(self, max_events: int) -> bool:
        env = self.env
        done = self.done
        for _ in range(max_events):
            if done.processed:
                return True
            if env.peek() == _INF:
                raise JobStallError(
                    f"{self.label}: event queue drained before the done "
                    "event was processed"
                )
            env.step()
        return done.processed

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self._on_stop is not None:
            self._on_stop()
        if self.tracer is not None:
            self.tracer.finish()  # idempotent: cancel + shutdown both land here

    def result(self) -> Dict[str, Any]:
        payload = {
            "now": repr(self.env.now),
            "events": self.env.events_executed,
        }
        if self._result_fn is not None:
            payload.update(self._result_fn())
        return payload

    def progress(self) -> Dict[str, Any]:
        return {
            "events": self.env.events_executed,
            "sim_now": self.env.now,
        }

    def events(self) -> int:
        return self.env.events_executed

    def checksum(self) -> str:
        return result_checksum(self.result())

    def manifest(self) -> Optional[Dict[str, Any]]:
        if self.tracer is None:
            return None
        from ..trace.exporters import run_manifest

        return run_manifest(self.tracer, label=self.label)


class ShardedTask:
    """A windowed conservative-PDES run (composes with ``sim.shard``).

    One ``advance()`` call is one
    :meth:`~repro.sim.shard.ShardCoordinator.advance_window` — the
    coordinator's own barrier body — so a sharded job shares the worker
    pool fairly with single-Environment jobs while keeping the barrier
    structure (and therefore the event order) of ``ShardCoordinator.run``.
    """

    def __init__(
        self,
        shards: Sequence[Environment],
        done: Event,
        window: float,
        fabric: Any = None,
        *,
        on_stop: Optional[Callable[[], None]] = None,
        result_fn: Optional[Callable[[], Dict[str, Any]]] = None,
        label: str = "sharded",
    ) -> None:
        self._coord = ShardCoordinator(shards, window, fabric)
        self.shards = self._coord.shards
        self.done = done
        self._on_stop = on_stop
        self._result_fn = result_fn
        self.label = label
        self._stopped = False
        root = done.env
        if root not in self.shards:
            raise ValueError("`done` event does not belong to any shard")
        self._root = root

    @property
    def windows_run(self) -> int:
        return self._coord.windows_run

    def start(self) -> None:  # shard builders start their runtimes
        return None

    def advance(self, max_events: int) -> bool:
        # max_events bounds per-shard work only indirectly: a window is
        # the smallest unit that keeps the barrier structure.
        try:
            return self._coord.advance_window(self.done)
        except ShardStallError as exc:
            # Keep the coordinator's per-shard report in the job error.
            raise JobStallError(f"{self.label}: {exc}") from exc

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self._on_stop is not None:
            self._on_stop()

    def result(self) -> Dict[str, Any]:
        payload = {
            "now": repr(self._root.now),
            "events": sum(env.events_executed for env in self.shards),
            "windows": self.windows_run,
        }
        if self._result_fn is not None:
            payload.update(self._result_fn())
        return payload

    def progress(self) -> Dict[str, Any]:
        return {
            "events": sum(env.events_executed for env in self.shards),
            "sim_now": self._root.now,
            "windows": self.windows_run,
        }

    def events(self) -> int:
        return sum(env.events_executed for env in self.shards)

    def checksum(self) -> str:
        return result_checksum(self.result())

    def manifest(self) -> Optional[Dict[str, Any]]:
        return None


class ModelTask:
    """A pure analytic-model evaluation (perfmodel curves).

    The computation is a pure function of its config, so results are
    memoized in the service's :class:`~repro.serve.cache.CalibrationCache`
    when one is provided — repeat submissions of the same curve are
    cache hits, which the servebench report surfaces.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        *args: Any,
        cache: Any = None,
        label: str = "model",
        **kwargs: Any,
    ) -> None:
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.cache = cache
        self.label = label
        self._value: Any = None
        self._ran = False

    def start(self) -> None:
        return None

    def advance(self, max_events: int) -> bool:
        if not self._ran:
            if self.cache is not None:
                self._value = self.cache.call(self.fn, *self.args, **self.kwargs)
            else:
                self._value = self.fn(*self.args, **self.kwargs)
            self._ran = True
        return True

    def stop(self) -> None:
        return None

    def result(self) -> Dict[str, Any]:
        value = self._value
        if isinstance(value, (list, tuple)):
            reprs: List[str] = [repr(v) for v in value]
            return {"curve": reprs}
        return {"value": repr(value)}

    def progress(self) -> Dict[str, Any]:
        return {"ran": self._ran}

    def events(self) -> int:
        return 0

    def checksum(self) -> str:
        return result_checksum(self.result())

    def manifest(self) -> Optional[Dict[str, Any]]:
        return None
