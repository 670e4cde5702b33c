"""In-memory spans recorded from the benchmark's side of each layer boundary.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the span that was open when this one started (-1 at the top), ``op`` the
id of the benchmark operation it belongs to.  Names read
``<phase>:<layer>.<what>`` with phase one of build / run / verify, so the
per-phase and per-layer tables both fall out of one pass over the rows.

Spans come from two places, both in ``bench/``: explicit ``with
spans.span(...)`` blocks in the workloads, and :meth:`Spans.instrument`,
which wraps *public* functions of the program for the length of one traced
op and restores them afterwards.  Nothing inside the program is edited;
tags emitted by the program itself are a later issue.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter
from typing import Any, Dict, Iterable, Iterator, List, Tuple

NAME, START, END, PARENT, OP = range(5)

#: (owner object, attribute, span name): one public function of the program
#: that a traced op wraps; :func:`trace_points` lists them.
TracePoint = Tuple[Any, str, str]


class NullSpans:
    """The untraced recorder: every span is a shared no-op context."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def wrap(self, fn, name: str):
        return fn


NULL = NullSpans()


class Spans:
    """Span recorder for a traced run; rows stay in memory until written."""

    def __init__(self) -> None:
        self.rows: List[list] = []
        self._stack: List[int] = []
        self.op = -1

    def begin_op(self) -> None:
        self.op += 1

    def _open(self, name: str) -> list:
        stack = self._stack
        row = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
        stack.append(len(self.rows))
        self.rows.append(row)
        return row

    def _close(self, row: list) -> None:
        row[END] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        row = self._open(name)
        try:
            yield
        finally:
            self._close(row)

    def wrap(self, fn, name: str):
        """``fn`` with a span around every call."""
        def wrapper(*args, **kwargs):
            row = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(row)

        return wrapper

    @contextlib.contextmanager
    def instrument(self, points: Iterable[TracePoint]) -> Iterator[None]:
        """Wrap each public ``owner.attr`` in a span, restore on exit."""
        undo = []
        try:
            for owner, attr, name in points:
                # vars(): an inherited method is wrapped on the subclass
                # named in the table and deleted again, not copied down.
                had = attr in vars(owner)
                original = getattr(owner, attr)
                setattr(owner, attr, self.wrap(original, name))
                undo.append((owner, attr, had, original))
            yield
        finally:
            for owner, attr, had, original in reversed(undo):
                if had:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)


def self_times(rows: List[list]) -> List[float]:
    """Per-row self time: duration minus the part child spans cover."""
    out = [row[END] - row[START] for row in rows]
    for row in rows:
        if row[PARENT] >= 0:
            out[row[PARENT]] -= row[END] - row[START]
    return out


def check(rows: List[list]) -> List[str]:
    """Well-formedness faults: a parent that does not precede its child,
    a span that ends before it starts or outside its parent's op, or a
    negative self time."""
    faults = []
    selfs = self_times(rows)
    for i, row in enumerate(rows):
        if row[END] < row[START]:
            faults.append(f"span {i} {row[NAME]}: end before start")
        if not -1 <= row[PARENT] < i:
            faults.append(f"span {i} {row[NAME]}: parent {row[PARENT]} not before it")
        elif row[PARENT] >= 0 and rows[row[PARENT]][OP] != row[OP]:
            faults.append(f"span {i} {row[NAME]}: parent belongs to another op")
        # Children are timed inside the parent, so self time can only go
        # negative by clock granularity.
        if selfs[i] < -1e-6:
            faults.append(f"span {i} {row[NAME]}: self time {selfs[i]:.3e} < 0")
    return faults


def by_name(rows: List[list]) -> Dict[str, Dict[str, float]]:
    """The per-layer table: count, total and self seconds per span name."""
    table: Dict[str, Dict[str, float]] = {}
    for row, self_s in zip(rows, self_times(rows)):
        cell = table.setdefault(row[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        cell["count"] += 1
        cell["total_s"] += row[END] - row[START]
        cell["self_s"] += self_s
    return table


def per_op(rows: List[list], prefix: str) -> Dict[int, float]:
    """Self seconds per op id over the spans whose name starts with
    ``prefix`` (self time, so nested spans of one phase are not counted
    twice)."""
    out: Dict[int, float] = {}
    for row, self_s in zip(rows, self_times(rows)):
        if row[NAME].startswith(prefix):
            out[row[OP]] = out.get(row[OP], 0.0) + self_s
    return out


def write(path, rows: List[list], extra: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = dict(extra)
    doc["columns"] = ["name", "start_s", "end_s", "parent", "op"]
    doc["layers"] = by_name(rows)
    doc["spans"] = rows
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")


def trace_points() -> List[TracePoint]:
    """The public functions a traced op wraps, one per layer boundary."""
    from repro.bgq import BGQMachine
    from repro.bgq.shardnet import ReservationFabric
    from repro.charm import Charm
    from repro.converse import ConverseRuntime
    from repro.namd import system as namd_system
    from repro.namd.charm_app import NamdCharm
    from repro.serve import EnvTask, ModelTask, ShardedTask
    from repro.sim import Environment
    from repro.sim.shard import ShardCoordinator, ShardEnvironment

    return [
        (BGQMachine, "__init__", "build:bgq.machine"),
        (ConverseRuntime, "__init__", "build:converse.runtime"),
        (Charm, "__init__", "build:charm.runtime"),
        (namd_system, "build_system", "build:namd.system"),
        (NamdCharm, "__init__", "build:namd.app"),
        (ConverseRuntime, "run_until", "run:converse.run_until"),
        (Charm, "run", "run:charm.run"),
        (Environment, "run", "run:sim.run"),
        (Environment, "run_window", "run:sim.run_window"),
        (ShardCoordinator, "run", "run:shard.coordinator"),
        (ReservationFabric, "flush", "run:shard.fabric_flush"),
        (ShardEnvironment, "peek", "run:shard.peek"),
        (EnvTask, "advance", "run:serve.slice"),
        (ShardedTask, "advance", "run:serve.slice"),
        (ModelTask, "advance", "run:serve.slice"),
    ]
