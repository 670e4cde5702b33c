"""The Charm++ facade: arrays, entry methods, reductions, run control."""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Hashable, Iterable, Optional, Union

from ..bgq.params import BGQParams, DEFAULT_PARAMS
from ..converse import CmiDirectManytomany, ConverseRuntime, RunConfig
from ..converse.messages import ConverseMessage
from ..sim import Environment, Event
from .chare import Chare, ChareArray, blocked_map
from .reduction import ReductionManager

__all__ = ["Charm"]


class Charm:
    """A Charm++ application instance on a simulated BG/Q partition.

    Typical use::

        charm = Charm(RunConfig(nnodes=2, workers_per_process=4))
        arr = charm.create_array("workers", Worker, range(16))
        charm.seed(arr, 0, "start")
        result = charm.run()          # until charm.exit(...) is called
    """

    def __init__(
        self,
        config: RunConfig,
        params: BGQParams = DEFAULT_PARAMS,
        env: Optional[Environment] = None,
        machine=None,
    ) -> None:
        self.env = env or Environment()
        self.params = params
        self.config = config
        self.runtime = ConverseRuntime(self.env, config, params, machine=machine)
        self.cmidirect = CmiDirectManytomany(self.runtime)
        self.arrays: Dict[str, ChareArray] = {}
        self.reductions = ReductionManager(self)
        self._entry_hids: Dict[str, int] = {}
        self._categories: Dict[str, str] = {}
        self._entry_qos: Dict[str, int] = {}
        self.done: Event = self.env.event()
        self._started = False
        # Per-instance id source (never a module/class global): two
        # Charm instances in one process — e.g. sharded SPMD mirrors —
        # must mint identical ids for identical construction sequences.
        self._uid_counter = itertools.count(1)
        #: Entry methods executed.  Native statistic (always counted);
        #: snapshotted into the tracer's ``charm.entries`` counter.
        self.entries_executed = 0
        if self.runtime.tracer is not None:
            self.runtime.tracer.add_finalizer(self._flush_stats)

    def _flush_stats(self) -> None:
        """Snapshot Charm-layer statistics into the tracer (idempotent)."""
        if self.entries_executed:
            self.runtime.tracer.counters["charm.entries"] = self.entries_executed

    # -- entry-method plumbing ---------------------------------------------
    def set_entry_category(self, method_name: str, category: str) -> None:
        """Label a method's timeline segments (integrate/nonbonded/pme...).

        Must be called before the first send of that method.
        """
        if method_name in self._entry_hids:
            raise RuntimeError(
                f"method {method_name!r} already has a registered handler"
            )
        self._categories[method_name] = category

    def set_entry_qos(self, method_name: str, qos) -> None:
        """Set an entry method's default delivery semantics.

        ``qos`` is a :mod:`repro.faults.qos` constant or name
        ("reliable" / "best_effort" / "fresh").  Must be called before
        the first send of that method; per-send ``qos=`` overrides it.
        """
        from ..faults.qos import parse_qos

        if method_name in self._entry_hids:
            raise RuntimeError(
                f"method {method_name!r} already has a registered handler"
            )
        self._entry_qos[method_name] = parse_qos(qos)

    def register_entries(self, method_names: Iterable[str]) -> None:
        """Pre-register entry handlers in a fixed order.

        Handler ids normally get allocated lazily at the first send of
        each method, so the allocation order depends on the message
        trajectory.  Sharded SPMD runs construct one Charm mirror per
        shard and carry handler ids inside payloads across shards, so
        every mirror must agree on the ids: call this right after app
        construction with the complete entry-method list, in one fixed
        order, on every shard.  Registration itself schedules nothing —
        it is simulation-neutral.
        """
        for name in method_names:
            self.entry_handler_id(name)

    def entry_handler_id(self, method_name: str) -> int:
        hid = self._entry_hids.get(method_name)
        if hid is None:
            from ..faults.qos import QOS_RELIABLE

            hid = self.runtime.register_handler(
                self._make_entry_handler(method_name),
                category=self._categories.get(method_name, "compute"),
                qos=self._entry_qos.get(method_name, QOS_RELIABLE),
            )
            self._entry_hids[method_name] = hid
        return hid

    def _make_entry_handler(self, method_name: str) -> Callable:
        charm = self

        def entry(pe, msg):
            array_name, index, method, args = msg.payload
            array = charm.arrays[array_name]
            chare = array.elements[index]
            charm.entries_executed += 1
            yield from pe.thread.compute(charm.params.charm_entry_instr)
            result = getattr(chare, method)(*args)
            if result is not None and hasattr(result, "__next__"):
                yield from result

        entry.__name__ = f"entry_{method_name}"
        return entry

    def next_uid(self) -> int:
        """Allocate a small per-instance unique id (array names, m2m
        tags).  Scoped to this Charm so concurrent instances in one
        process mint identical ids for identical construction order."""
        return next(self._uid_counter)

    # -- array creation ------------------------------------------------------
    def create_array(
        self,
        name: str,
        factory: Callable[[Hashable], Chare],
        indices: Iterable[Hashable],
        map_fn: Optional[Callable[[Hashable, int, int], int]] = None,
    ) -> ChareArray:
        """Create a chare array; ``map_fn`` is an ``(index, ordinal,
        npes) -> pe`` map, blocked (contiguous blocks per PE) by default."""
        if name in self.arrays:
            raise ValueError(f"array {name!r} already exists")
        indices = list(indices)
        if map_fn is None:
            map_fn = blocked_map(len(indices))
        elif not callable(map_fn):
            raise ValueError(f"map_fn must be an (index, ordinal, npes) -> pe map, got {map_fn!r}")
        array = ChareArray(self, name, factory, indices, map_fn)
        self.arrays[name] = array
        return array

    # -- run control -------------------------------------------------------------
    def seed(self, array: ChareArray, index: Hashable, method: str, *args: Any) -> None:
        """Queue an entry-method invocation on ``index``'s PE; after
        start() it also wakes that PE, which may be parked idle."""
        hid = self.entry_handler_id(method)
        pe = self.runtime.pes[array.pe_of(index)]
        if pe is None:
            # Sharded run: this mirror does not own the seeded PE — the
            # shard that does seeds it (hid above was still allocated,
            # keeping handler-id allocation identical across mirrors).
            return
        payload = (array.name, index, method, args)
        rec = self.runtime.tracer
        msg_id = None
        if rec is not None:
            # Seeds are the roots of the causal DAG: stamp + record a
            # send/recv pair at t=0 so critical paths start somewhere.
            pe.msg_seq += 1
            msg_id = (pe.rank, pe.msg_seq)
            rec.msg_send(msg_id, pe.rank, pe.rank, 0)
            rec.msg_recv(msg_id, pe.rank)
        pe.local_q.append(
            ConverseMessage(hid, 0, payload, pe.rank, pe.rank, msg_id=msg_id)
        )
        if self._started:  # the PE may be parked in its idle poll
            pe.queue.wakeup.signal()

    def exit(self, value: Any = None) -> None:
        """CkExit: end the run; :meth:`run` returns ``value``."""
        if not self.done.triggered:
            self.done.succeed(value)

    def start(self) -> None:
        if not self._started:
            self._started = True
            self.runtime.start()

    def run(self, until: Optional[Union[float, Event]] = None) -> Any:
        """Start the runtime and run until ``charm.exit`` (default)."""
        self.start()
        value = self.env.run(until=until if until is not None else self.done)
        self.runtime.stop()
        return value

    @property
    def tracer(self):
        """The run's Projections-style tracer (None when tracing is off)."""
        return self.runtime.tracer

    @property
    def npes(self) -> int:
        return len(self.runtime.pes)
