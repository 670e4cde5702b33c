"""Deterministic discrete-event simulation kernel.

Every hardware and runtime component in this reproduction executes on top
of this engine: simulated hardware threads are generator-based processes,
hardware latencies are timeouts, and cross-component signalling is done
with :class:`Event`.

The engine is deliberately SimPy-flavoured but self-contained (the
reproduction environment is offline) and fully deterministic: events
scheduled for the same timestamp fire in schedule order, so a given seed
always produces an identical trace.  Time is a float in *simulated
cycles* of the machine being modelled; helpers for converting to
nanoseconds/microseconds live on the machine parameter objects.

Hot path
--------
Event dispatch dominates the wall-clock of every figure reproduction
(see EXPERIMENTS.md "Benchmark gate").  There is **one dispatch loop**,
:meth:`Environment._advance`; ``run()``, ``run_window()``,
``run_events()`` and ``step()`` are thin callers of it.  It is
*cycle-for-cycle identical* to the straightforward single-heap
implementation — same event order, same simulated times — but cheaper
on the host:

* zero-delay events (every ``succeed``/``fail``, process init wakes,
  condition triggers) go to a FIFO deque instead of the heap.
  Because the clock cannot advance past a pending event, all deque
  entries share the current timestamp and carry their schedule sequence
  number; the loop merges deque and heap by ``(time, seq)``,
  reproducing exact heap order with O(1) scheduling for the dominant
  zero-delay class;
* the loop pops and dispatches inline (no per-event method call) and
  tests the stop bound on heap pops only;
* ``Event.callbacks`` is lazily allocated (``None`` until the first
  waiter registers; reset to ``None`` once processed), so events nobody
  waits on never allocate a list;
* each :class:`Process` reuses one bound ``_resume`` callback for every
  wait instead of materialising a new bound method per yield;
* :class:`Timeout` initialises its slots directly — the common
  ``timeout -> resume`` cycle runs without intermediate method calls;
  so does :class:`Ticket`, made only when it is pushed, at a ``(time,
  seq)`` key whose seq :meth:`Environment.reserve_seq` took earlier (a
  core reserves one per chunk end and pushes only the earliest);
* every :class:`Event` subclass is ``__slots__``-complete (no instance
  dicts on the hot path);
* the clock (``now``, ``active_process``) is a plain slot that only
  this module writes: a model-side read is an attribute load, not a call.

The serve layer and the serve gate's interleave pass drive runs in
slices of ``run_events(max_events, until=done)``, one budgeted call of
the loop per slice; ``step()`` is a budget of one.  The drive-mode
matrix in ``tests/sim/test_determinism.py`` holds every caller to one
trajectory, and to a heap-only reference scheduler that lives in that
test file — the engine itself has one scheduling path and no switch to
select another.

Hooks
-----
Two optional observers ride in the loop, each bound once per call and
costing the un-hooked loop one local test per event.  They compose: a
sanitized run can be profiled, a profiled run is still checked.

* **Sanitizer** — ``REPRO_SANITIZE=1`` (sampled at :class:`Environment`
  construction) detects runtime protocol
  violations the static pass (``repro.analysis``, rule docs in
  docs/ANALYSIS.md) cannot prove: reentrant ``step()``/``run()`` calls
  from inside event callbacks (a guard taken on entry to the loop),
  callback lists repopulated while their event is processed (one check
  after dispatch), callback registration on already-processed events
  (lost wakeups), and hash-ordered iterables handed to
  ``any_of``/``all_of``.  The checks raise
  :class:`repro.analysis.sanitizer.SanitizerError`; the trajectory of a
  clean run is bit-identical to an unsanitized one.
* **Profiler** — a :class:`repro.obs.EngineProfiler`, attached at
  construction by an active ``ProfileSession``.  The loop counts down in
  a local and calls ``profiler.sample()`` on sampled events only; all
  other sampling state lives in ``repro.obs.profiler``.  Only the host
  clock is read, so profiled simulated times are bit-identical too.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from ..envvar import env_switch

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Ticket",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
]

_INF = float("inf")

#: Construction hook for the engine hotspot profiler (``repro.obs``).
#: Single slot so installation is one list write, not a module
#: rebinding; ``ProfileSession`` sets ``[0]`` to a factory called with
#: each new :class:`Environment` and clears it on exit.  Tooling-only
#: state: it is read exactly once per Environment construction and
#: never influences scheduling, so concurrent-instance isolation is
#: unaffected (allowlisted in ``[tool.repro-lint] global-allow``).
_PROFILER_FACTORY: list = [None]


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (double-trigger, bad yields...)."""


# Event states
_PENDING = 0
_TRIGGERED = 1  # scheduled on the heap, not yet processed
_PROCESSED = 2


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* with either a value (:meth:`succeed`) or an
    exception (:meth:`fail`).  Callbacks registered before processing run
    in registration order when the event is popped from the event queue.

    ``callbacks`` is ``None`` both before any callback registers (lazy
    allocation — most events never get a waiter) and again after the
    event has been processed; test ``_state`` (via :attr:`processed`)
    to distinguish, never ``callbacks is None`` alone.
    """

    __slots__ = ("env", "callbacks", "_value", "_exc", "_state", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._state = _PENDING
        self._defused = False

    # -- inspection --------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid once triggered)."""
        return self._state != _PENDING and self._exc is None

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("value of untriggered event")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering --------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._state = _TRIGGERED
        env = self.env
        env._seq = seq = env._seq + 1
        env._imm.append((env.now, seq, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exc = exc
        self._state = _TRIGGERED
        env = self.env
        env._seq = seq = env._seq + 1
        env._imm.append((env.now, seq, self))
        return self

    def cancel(self) -> None:
        """Lazily retire a scheduled event: its pop becomes a no-op.

        Heap entries cannot be removed in O(log n) (and a
        :class:`Timeout` is heap-scheduled at construction), so
        cancellation marks the event processed and drops its callbacks;
        when ``step()`` eventually pops the entry it dispatches nothing.
        Any generator suspended on the event is abandoned — only cancel
        events whose sole waiter should die with them (the reliability
        layer's retransmit timers are the canonical case).  Idempotent;
        also safe on an event that already fired.
        """
        self.callbacks = None
        self._state = _PROCESSED
        self._defused = True

    # -- engine internals ---------------------------------------------
    def _add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb`` (event must not be processed yet)."""
        if self._state == _PROCESSED and self.env._sanitize:
            from ..analysis.sanitizer import SanitizerError

            raise SanitizerError(
                f"callback registered on already-processed {self!r} — it "
                "would never fire (lost wakeup); wait on a fresh event"
            )
        cbs = self.callbacks
        if cbs is None:
            self.callbacks = [cb]
        else:
            cbs.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        st = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {st[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """Event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also NaN, which would pop first and jam the clock
            raise SimulationError(f"negative or NaN timeout delay {delay!r}")
        # Initialise slots directly (no Event.__init__ call): a Timeout
        # is born triggered, and this constructor is the hottest
        # allocation site in the simulator.
        self.env = env
        self.callbacks = None
        self._value = value
        self._exc = None
        self._state = _TRIGGERED
        self._defused = False
        self.delay = delay
        env._seq = seq = env._seq + 1
        if delay == 0.0:
            env._imm.append((env.now, seq, self))
        else:
            heapq.heappush(env._queue, (env.now + delay, seq, self))


class Ticket(Event):
    """Pushed when made, at ``(at, seq)`` with ``seq`` reserved earlier by
    :meth:`Environment.reserve_seq`: it pops where an event scheduled at
    the reservation would have, and costs nothing until it is needed."""

    __slots__ = ()

    def __init__(
        self, env: "Environment", at: float, seq: Any, value: Any, callbacks: list
    ) -> None:
        # Inline, as in Timeout: a core makes one per pushed chunk end.
        self.env = env
        self.callbacks = callbacks
        self._value = value
        self._exc = None
        self._state = _TRIGGERED
        self._defused = False
        heapq.heappush(env._queue, (at, seq, self))


class _ConditionValue:
    """Ordered mapping of events -> values for AllOf/AnyOf results."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]) -> None:
        self.events = list(events)

    def __iter__(self):
        return iter(self.todict().values())

    def todict(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events if e.triggered and e._exc is None}


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        if env._sanitize:
            from ..analysis.sanitizer import check_ordered

            check_ordered(events, type(self).__name__)
        self._events = list(events)
        self._count = 0
        if not self._events:
            self.succeed(_ConditionValue([]))
            return
        for ev in self._events:
            if ev._state == _PROCESSED:
                self._check(ev)
            else:
                ev._add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self._state != _PENDING:
            # The condition already triggered.  A constituent that
            # *fails* afterwards must still be defused here — this
            # callback is its only consumer, and an un-defused failure
            # would crash the run at its pop (e.g. an
            # AnyOf whose losing member later fails).
            if event._exc is not None:
                event._defused = True
            return
        self._count += 1
        if event._exc is not None:
            event._defused = True
            self.fail(event._exc)
        elif self._satisfied():
            self.succeed(_ConditionValue(self._events))

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every constituent event has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= len(self._events)


class AnyOf(_Condition):
    """Fires when the first constituent event fires."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class Process(Event):
    """A generator-based simulated process.

    The generator yields :class:`Event` instances; the process resumes
    when the yielded event fires, receiving the event's value (or having
    the event's exception thrown into it).  The Process is itself an
    Event that fires with the generator's return value when it finishes.
    Nothing is thrown into a waiting process from outside: it runs to
    completion, and a thread that must stop is woken to see a flag.
    """

    __slots__ = ("gen", "name", "_resume_cb")

    def __init__(
        self,
        env: "Environment",
        gen: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(gen, "throw"):
            raise SimulationError(f"process requires a generator, got {gen!r}")
        super().__init__(env)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        #: One bound method reused for every wait (a fresh bound-method
        #: object per yield is pure allocator churn on the hot path).
        self._resume_cb = self._resume
        init = Event(env)
        init.callbacks = [self._resume_cb]
        init.succeed()

    @property
    def is_alive(self) -> bool:
        return self._state == _PENDING

    def _resume(self, event: Event) -> None:
        env = self.env
        env.active_process = self
        gen = self.gen
        while True:
            try:
                if event._exc is not None:
                    event._defused = True
                    next_ev = gen.throw(event._exc)
                else:
                    next_ev = gen.send(event._value)
            except StopIteration as stop:
                env.active_process = None
                if self._state == _PENDING:
                    self.succeed(stop.value)
                return
            except BaseException as exc:
                env.active_process = None
                if self._state == _PENDING:
                    self.fail(exc)
                return

            if not isinstance(next_ev, Event):
                env.active_process = None
                err = SimulationError(
                    f"process {self.name!r} yielded non-event {next_ev!r}"
                )
                gen.throw(err)
                raise err

            if next_ev._state != _PROCESSED:
                # Not yet processed: wait for it.
                cbs = next_ev.callbacks
                if cbs is None:
                    next_ev.callbacks = [self._resume_cb]
                else:
                    cbs.append(self._resume_cb)
                env.active_process = None
                return
            # Already processed: loop and continue immediately with its
            # outcome (common with pre-fired events).
            event = next_ev


class Environment:
    """The simulation environment: clock + event queues + factories.

    Two pending-event stores cooperate (see the module docstring):
    ``_queue`` is the timestamp heap; ``_imm`` is the FIFO deque of
    zero-delay events, all stamped with the current time and a schedule
    sequence number.  The dispatch loop (:meth:`_advance`) pops
    whichever holds the globally smallest ``(time, seq)``, so the merged
    order is exactly the classic single-heap order.

    ``now`` (the clock) and ``active_process`` (the process whose
    generator is running, else ``None``) are read-only outside this
    module; lint rule P3 flags a store to either anywhere else.
    """

    __slots__ = (
        "now",
        "_queue",
        "_imm",
        "_seq",
        "_sanitize",
        "_stepping",
        "active_process",
        "events_executed",
        "tracer",
        "profiler",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self.now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        #: Zero-delay events: (time, seq, event), FIFO == (time, seq) order.
        self._imm: deque[tuple[float, int, Event]] = deque()
        self._seq = 0
        #: REPRO_SANITIZE=1 arms the dispatch loop's protocol checks (see
        #: module doc "Sanitizer"); trajectory-neutral, host-time only.
        self._sanitize = env_switch("REPRO_SANITIZE")
        #: True while _advance is on the stack of a sanitized run (the
        #: reentrancy guard).
        self._stepping = False
        self.active_process: Optional[Process] = None
        #: Events processed so far.  Maintained unconditionally (an int
        #: add is far cheaper than a tracer call on the hottest loop in
        #: the simulator); Tracer.finish() harvests it as the
        #: ``engine.events`` counter.
        self.events_executed = 0
        #: Optional repro.trace.Tracer; None when tracing is off (the
        #: runtime wires it, see ConverseRuntime).
        self.tracer = None
        #: Optional repro.obs.EngineProfiler; None when profiling is
        #: off (the hard zero-cost switch, mirroring ``tracer``).  An
        #: active :class:`repro.obs.ProfileSession` attaches one at
        #: construction; profiling only *measures* — simulated times
        #: stay bit-identical (``make bench-gate`` proves it).
        factory = _PROFILER_FACTORY[0]
        self.profiler = factory(self) if factory is not None else None

    # -- sequence ------------------------------------------------------
    def reserve_seq(self) -> Any:
        """Take the next schedule sequence number now, for a
        :class:`Ticket` that may be pushed later at this place in the
        same-time order (an unused reservation costs nothing)."""
        self._seq = seq = self._seq + 1
        return seq

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: Optional[str] = None) -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none.

        A pending zero-delay event always carries the current time (the
        clock cannot advance past it), so the deque head — when present
        — is never later than the heap head.
        """
        imm = self._imm
        if imm:
            return imm[0][0]
        q = self._queue
        return q[0][0] if q else _INF

    def step(self) -> None:
        """Process exactly one event (the globally next in (time, seq)):
        one budgeted turn of :meth:`_advance`, so the hooks see every
        event whichever way the run is driven."""
        if not self._imm and not self._queue:
            raise SimulationError("step() on empty event queue")
        self._advance(_INF, None, 1)

    def run_events(self, max_events: int, until: Optional[Event] = None) -> None:
        """Process at most ``max_events`` events in ``(time, seq)`` order,
        stopping early once ``until`` has been processed (the clock then
        stays at its time, as with ``run(until=event)``) or the queue
        drains.  One call of the dispatch loop: the serve layer runs a
        job's slice with it."""
        if max_events < 1 or (until is not None and until._state == _PROCESSED):
            return
        self._advance(_INF, until, max_events)

    def _advance(
        self, stop_time: float, stop_event: Optional[Event], budget: int
    ) -> None:
        """The dispatch loop behind :meth:`run`, :meth:`run_window`,
        :meth:`run_events` and :meth:`step`: pop in ``(time, seq)``
        order and dispatch.

        Stops at the first of: the next event is at or after
        ``stop_time`` (the clock then lands exactly on a finite
        ``stop_time``, also when the queue drains first); ``stop_event``
        has been processed (the clock stays at its time); ``budget``
        events have run (0 = no limit); the queue drains.  Both hooks
        are bound once per call, not per event.
        """
        sanitize = self._sanitize
        if sanitize:
            from ..analysis.sanitizer import SanitizerError

            if self._stepping:
                raise SanitizerError(
                    "reentrant Environment.step(): an event callback invoked "
                    "step()/run() — schedule follow-up work as events instead"
                )
            self._stepping = True
        prof = self.profiler
        # Events until the profiler's next sample; it parks the
        # countdown on itself between calls (windows, served slices).
        skip = prof.skip if prof is not None else 0
        imm = self._imm
        q = self._queue
        try:
            # An empty window (stop_time <= now) runs nothing.  Past that
            # test only heap pops need the bound: a deque entry carries
            # time == now, and now stays below stop_time from here on.
            while stop_time > self.now:
                # Take the deque head unless the heap head is strictly
                # smaller — possible only at the same timestamp (an
                # entry scheduled earlier: same time, smaller seq).  The
                # tuple compare never reaches the event: (time, seq) is
                # unique.
                if imm and not (q and q[0] < imm[0]):
                    when, _, event = imm.popleft()
                    from_heap = False
                elif q:
                    if q[0][0] >= stop_time:
                        break
                    when, _, event = heapq.heappop(q)
                    from_heap = True
                else:
                    break
                self.now = when
                self.events_executed += 1
                # Dispatch inline (hot loop).
                callbacks = event.callbacks
                event.callbacks = None
                event._state = _PROCESSED
                if prof is not None:
                    skip -= 1
                    if not skip:
                        skip = prof.sample(event, callbacks, from_heap)
                if callbacks is not None:
                    for cb in callbacks:
                        cb(event)
                if sanitize and event.callbacks is not None:
                    raise SanitizerError(
                        f"callback list of {event!r} repopulated while it was "
                        "being processed — that callback would never fire"
                    )
                if event._exc is not None and not event._defused:
                    raise event._exc
                if stop_event is not None and stop_event._state == _PROCESSED:
                    return
                if budget:
                    budget -= 1
                    if not budget:
                        return
        finally:
            self._stepping = False
            if prof is not None:
                prof.skip = skip
        if stop_time != _INF:
            self.now = stop_time

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the given time or event; returns the event's value.

        With ``until=None`` runs until the event queue drains.  A
        numeric ``until=t`` is an *exclusive* bound: events scheduled
        exactly at ``t`` are **not** executed (they belong to the next
        window), and the clock lands exactly on ``t`` — repeated
        windowed ``run(until=...)`` calls each process only their own
        half-open ``[start, t)`` window, matching the documented
        SimPy-flavoured semantics.
        """
        stop_event: Optional[Event] = None
        stop_time = _INF
        if isinstance(until, Event):
            stop_event = until
            if stop_event._state == _PROCESSED:
                return stop_event.value
        elif until is not None:
            stop_time = float(until)
            if not stop_time >= self.now:
                raise SimulationError(
                    f"run(until={stop_time}) is in the past or NaN (now={self.now})"
                )

        self._advance(stop_time, stop_event, 0)
        if stop_event is None:
            return None
        if stop_event._state != _PROCESSED:
            raise SimulationError(
                f"run() ran out of events before {stop_event!r} triggered"
            )
        return stop_event.value

    def run_window(self, stop_time: float, stop_event: Optional[Event] = None) -> Any:
        """Process the half-open event window ``[now, stop_time)``.

        The extracted core of the bounded :meth:`run` loop, shared with
        the sharded conservative-PDES driver (:mod:`repro.sim.shard`):
        events strictly before ``stop_time`` execute in ``(time, seq)``
        order, then the clock lands exactly on ``stop_time``.  If
        ``stop_event`` is processed mid-window, execution stops there —
        with the clock at the event's time, exactly like
        ``run(until=event)`` — and its value is returned.  Running out
        of events is *not* an error here: under sharding, a drained
        shard simply waits at the window boundary for neighbour traffic.
        A ``stop_time`` before ``now``, or NaN, is a
        :class:`SimulationError`: the clock would land on it.
        """
        if not stop_time >= self.now:
            raise SimulationError(
                f"run_window({stop_time}) is in the past or NaN (now={self.now})"
            )
        self._advance(stop_time, stop_event, 0)
        if stop_event is not None and stop_event._state == _PROCESSED:
            return stop_event.value
        return None
