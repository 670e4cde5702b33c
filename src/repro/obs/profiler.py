"""Deterministic engine hotspot profiler (host-side observability).

The engine's throughput ceiling is CPython dispatch itself (ROADMAP
item 2), yet until now nothing measured *which* dispatch sites dominate.
This module attributes host wall time and invocation counts to the
engine's dispatch choke points — callback processing keyed by
``(event type, callback owner)``, with the zero-delay-deque vs heap pop
split — so the compiled-core extraction boundary can be chosen from
measured data rather than guesses.

The engine has one dispatch loop (``Environment._advance``) and the
profiler is a hook in it: the loop counts a local down and calls
:meth:`EngineProfiler.sample` on the event that zeroes it.  Everything
else — the gap LCG, the open interval, settling it, the accumulator —
is owned here.  Design constraints, in order:

1. **Cycle-neutral when off.** ``Environment.profiler`` is ``None``
   unless a :class:`ProfileSession` is active at construction time; the
   unprofiled loop pays one ``is not None`` test of a local per event.
   ``make obs-gate`` proves checksums are bit-identical either way.
2. **Deterministic.** Profiling only *reads* ``perf_counter_ns``; it
   never schedules from it and never perturbs pop order — there is no
   second loop to keep in step, profiled and unprofiled runs execute
   the same pops.  Profiled simulated times are bit-identical to
   unprofiled ones.
3. **Cheap when on.** Per-event keying costs several hundred ns in
   CPython — over budget on a ~µs dispatch — so sampling is by stride:
   non-sampled events pay one countdown decrement.  A sampled event
   opens an interval the next event closes; that one dispatch's wall
   time and pop site, scaled by the gap the sample stands for, go to
   its ``(event class, first callback)`` key — so shares and counts
   are estimates, the total count exact.  Gaps come from a seeded LCG
   (:meth:`EngineProfiler.next_gap`), deterministic per run and
   jittered so periodic workloads cannot alias with the stride;
   ``stride=1`` is exact per-event mode.  All name resolution,
   normalization and aggregation happen at export time in
   :meth:`ProfileSession.profile`.  Budget: ≤5% overhead, enforced by
   ``make obs-gate`` (interleaved median, the tracer-overhead
   methodology).

The accumulator record layout is ``[count, nanos, deque_pops,
heap_pops, span_first, span_last]``.  The span fields hold the first/
last :mod:`repro.trace` span index closed while the site's sampled
events ran — the profile↔trace correlation handle (span ids are the
span's index in ``tracer.spans``, the same id the Chrome exporter emits
as ``args.span_id``).
"""

from __future__ import annotations

import re
from time import perf_counter_ns
from types import FunctionType, MethodType
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim import engine as _engine

__all__ = ["EngineProfiler", "Profile", "ProfileSession", "owner_name"]

PROFILE_SCHEMA = 1

_DIGITS = re.compile(r"\d+")


def _norm(name: str) -> str:
    """Collapse digit runs to ``*`` so per-rank owners aggregate.

    Process names are typically instance-numbered (``pe3``,
    ``mu0-ififo2``, ``pkt-1->5``); a hotspot profile keyed on raw names
    would shatter one dispatch site into hundreds of one-sample nodes.
    """
    return _DIGITS.sub("*", name)


def owner_name(cb: Any) -> str:
    """Resolve an accumulator callback key to an aggregatable label.

    :meth:`EngineProfiler.sample` keys on the first callback when it is
    a bound method or plain function, and degrades callable *instances*
    (constructed per event — unbounded cardinality) to their class.  So
    ``cb`` here is a method, a function, a class, or ``None`` (an event
    processed with no callbacks).  Methods carry their class and method
    name plus the owning object's ``name`` when it has one (normalized);
    functions use their qualname.
    """
    if cb is None:
        return "(no-callback)"
    if isinstance(cb, type):
        return cb.__name__
    bound = getattr(cb, "__self__", None)
    if bound is not None:
        fn = getattr(cb, "__func__", None)
        mname = fn.__name__ if fn is not None else getattr(cb, "__name__", "?")
        oname = getattr(bound, "name", None)
        if isinstance(oname, str) and oname:
            return f"{type(bound).__name__}.{mname}:{_norm(oname)}"
        return f"{type(bound).__name__}.{mname}"
    qual = getattr(cb, "__qualname__", None) or getattr(cb, "__name__", None)
    if isinstance(qual, str) and qual:
        return _norm(qual)
    return type(cb).__name__


class EngineProfiler:
    """Per-Environment sampler and hot-path accumulator.

    One instance is attached to each :class:`~repro.sim.engine.Environment`
    constructed while a :class:`ProfileSession` is active.  The engine's
    dispatch loop counts :attr:`skip` down in a local and calls
    :meth:`sample` on the event that zeroes it; everything else about
    sampling — the gap LCG, the open interval, settling it — lives here.
    """

    __slots__ = (
        "acc", "index", "stride", "env", "skip", "_rng",
        "_key", "_t0", "_site", "_span0", "_weight", "_last", "_gap",
    )

    def __init__(self, index: int = 0, stride: int = 32, env: Any = None) -> None:
        #: raw accumulator: (event class, method|function|class|None) ->
        #: [count, nanos, deque_pops, heap_pops, span_first, span_last]
        self.acc: Dict[Tuple[type, Any], List[int]] = {}
        #: ordinal of the Environment within the owning session
        self.index = index
        #: mean sampling gap in events; 1 = exact per-event mode
        self.stride = max(1, int(stride))
        #: the owning Environment (events_executed, tracer)
        self.env = env
        #: events until the next sample (1: the very first event samples
        #: and opens the first interval).  The dispatch loop keeps the
        #: live countdown in a local and parks it here between calls.
        self.skip = 1
        # LCG state, seeded per-profiler so sibling Environments do not
        # sample in lockstep.  No wall-clock entropy: deterministic.
        self._rng = (0x9E3779B9 ^ (index * 0x85EBCA6B)) & 0x7FFFFFFF or 1
        # The last sample: key (None = none yet), opening clock read (-1
        # once closed), pop-site slot (2 deque, 3 heap), tracer span
        # count, the events it stands for, its index, the next gap.
        self._key: Optional[Tuple[type, Any]] = None
        self._t0 = -1
        self._site = 2
        self._span0 = -1
        self._weight = 0
        self._last = -1
        self._gap = 1

    def next_gap(self) -> int:
        """Events until the next sample, jittered around ``stride``.

        Uniform on ``[1, 2*stride - 1]`` (mean = ``stride``) from a
        seeded LCG: deterministic for a given run, but aperiodic enough
        that a workload with a fixed event period cannot systematically
        hide behind the sampling stride.
        """
        stride = self.stride
        if stride <= 1:
            return 1
        x = (self._rng * 1103515245 + 12345) & 0x7FFFFFFF
        self._rng = x
        return 1 + x % (2 * stride - 1)

    def sample(self, event: Any, callbacks: Optional[list], from_heap: bool) -> int:
        """Close the open interval; open one on ``event`` if it is due.

        Called by the dispatch loop after the pop and before the
        callbacks run; returns the countdown to the next call.  Opening
        reads the clock last and returns 1; closing, on the next event,
        reads it first.  The interval between is the sampled event's own
        dispatch, profiler excluded, and is charged times its gap.

        Keys stay bounded by code, not events: a bound method or plain
        function keeps per-owner granularity (long-lived, or hash-equal
        across rebinds); any other callable — a one-shot callable
        instance may be constructed per event — degrades to its class.
        """
        if self._t0 >= 0:
            weight = self._weight
            self._settle(weight, (perf_counter_ns() - self._t0) * weight)
            self._t0 = -1
            if self._gap > 1:
                return self._gap - 1
        # The loop has already counted this event.
        ev = self.env.events_executed - 1
        if callbacks:
            cb0 = callbacks[0]
            kind = cb0.__class__
            if kind is not MethodType and kind is not FunctionType:
                cb0 = kind
        else:
            cb0 = None
        self._key = (event.__class__, cb0)
        self._site = 3 if from_heap else 2
        tracer = self.env.tracer
        self._span0 = len(tracer.spans) if tracer is not None else -1
        self._weight = ev - self._last
        self._last = ev
        self._gap = self.next_gap()
        self._t0 = perf_counter_ns()
        return 1

    def _settle(self, count: int, nanos: int) -> None:
        """Charge ``count`` events and ``nanos`` to the last sample's key."""
        rec = self.acc.get(self._key)
        if rec is None:
            self.acc[self._key] = rec = [0, 0, 0, 0, -1, -1]
        rec[0] += count
        rec[1] += nanos
        rec[self._site] += count
        if self._span0 >= 0:
            closed = len(self.env.tracer.spans)
            if closed > self._span0:
                if rec[4] < 0:
                    rec[4] = self._span0
                rec[5] = closed - 1

    def flush(self) -> None:
        """Charge an interval the stopped engine left open and the events
        after the last sample to the last key: counts, no nanoseconds.
        Idempotent."""
        if self._key is None:
            return
        last = self.env.events_executed - 1
        self._settle((self._weight if self._t0 >= 0 else 0) + last - self._last, 0)
        self._t0 = -1
        self._last = last

    def total_nanos(self) -> int:
        return sum(rec[1] for rec in self.acc.values())

    def total_count(self) -> int:
        return sum(rec[0] for rec in self.acc.values())


class Profile:
    """An aggregated, name-resolved hotspot profile.

    Nodes are ``(event_type, owner)`` dispatch sites ordered by
    descending wall time (ties broken lexically, so exports are
    deterministic for a given set of measurements).  Wall-time *shares*
    are fractions of the profile's own total, so the top-N coverage the
    obs-gate checks (≥80%) is well defined without any external
    reference.
    """

    def __init__(
        self,
        label: str,
        nodes: List[Dict[str, Any]],
        envs: int,
    ) -> None:
        self.label = label
        self.envs = envs
        self.total_nanos = sum(n["nanos"] for n in nodes)
        self.total_count = sum(n["count"] for n in nodes)
        total = self.total_nanos
        for n in nodes:
            n["share"] = (n["nanos"] / total) if total else 0.0
        nodes.sort(key=lambda n: (-n["nanos"], n["event_type"], n["owner"]))
        self.nodes = nodes

    # -- aggregation ---------------------------------------------------

    @classmethod
    def from_profilers(
        cls, label: str, profilers: List[EngineProfiler]
    ) -> "Profile":
        """Merge the profilers' ``[count, nanos, deque_pops, heap_pops,
        span_first, span_last]`` records into one node per
        ``(event_type, owner)`` site."""
        merged: Dict[Tuple[str, str], Dict[str, Any]] = {}
        for prof in profilers:
            prof.flush()
            for (etype, cb), rec in prof.acc.items():
                key = (etype.__name__, owner_name(cb))
                node = merged.get(key)
                if node is None:
                    merged[key] = node = {
                        "event_type": key[0],
                        "owner": key[1],
                        "count": 0,
                        "nanos": 0,
                        "deque_pops": 0,
                        "heap_pops": 0,
                        "span_first": -1,
                        "span_last": -1,
                    }
                node["count"] += rec[0]
                node["nanos"] += rec[1]
                node["deque_pops"] += rec[2]
                node["heap_pops"] += rec[3]
                if rec[4] >= 0:
                    if node["span_first"] < 0 or rec[4] < node["span_first"]:
                        node["span_first"] = rec[4]
                    if rec[5] > node["span_last"]:
                        node["span_last"] = rec[5]
        return cls(label, list(merged.values()), envs=len(profilers))

    # -- queries -------------------------------------------------------

    def top(self, n: int = 10) -> List[Dict[str, Any]]:
        return self.nodes[:n]

    def coverage(self, n: int = 10) -> float:
        """Fraction of total wall time attributed to the top-n sites."""
        return sum(node["share"] for node in self.nodes[:n])

    # -- (de)serialization --------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": PROFILE_SCHEMA,
            "label": self.label,
            "envs": self.envs,
            "total_nanos": self.total_nanos,
            "total_events": self.total_count,
            "nodes": [dict(n) for n in self.nodes],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Profile":
        schema = data.get("schema")
        if schema != PROFILE_SCHEMA:
            raise ValueError(f"unsupported profile schema: {schema!r}")
        nodes = []
        for src in data.get("nodes", []):
            nodes.append(
                {
                    "event_type": str(src["event_type"]),
                    "owner": str(src["owner"]),
                    "count": int(src["count"]),
                    "nanos": int(src["nanos"]),
                    "deque_pops": int(src.get("deque_pops", 0)),
                    "heap_pops": int(src.get("heap_pops", 0)),
                    "span_first": int(src.get("span_first", -1)),
                    "span_last": int(src.get("span_last", -1)),
                }
            )
        return cls(str(data.get("label", "")), nodes, envs=int(data.get("envs", 0)))


class ProfileSession:
    """Context manager that arms profiling for new Environments.

    While the session is active, every :class:`~repro.sim.engine.Environment`
    constructed gets an :class:`EngineProfiler` attached (via the
    engine's single-slot ``_PROFILER_FACTORY`` construction hook) and is
    tracked by the session; :meth:`profile` aggregates all of them into
    one name-resolved :class:`Profile`.  Sessions nest: the previous
    hook is restored on exit, and exit always disarms this session even
    if the body raised.

    Environments constructed *before* the session (or after it exits)
    are never touched — profiling is an opt-in property of construction
    time, which is what keeps the disabled path provably untouched.
    """

    def __init__(self, label: str = "profile", stride: int = 32) -> None:
        self.label = label
        #: sampling stride handed to every attached profiler (1 = exact)
        self.stride = max(1, int(stride))
        self.profilers: List[EngineProfiler] = []
        self._prev: Optional[Callable[..., Any]] = None
        self._active = False

    def _attach(self, env: Any) -> EngineProfiler:
        prof = EngineProfiler(
            index=len(self.profilers), stride=self.stride, env=env
        )
        self.profilers.append(prof)
        return prof

    def __enter__(self) -> "ProfileSession":
        self._prev = _engine._PROFILER_FACTORY[0]
        _engine._PROFILER_FACTORY[0] = self._attach
        self._active = True
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._active:
            _engine._PROFILER_FACTORY[0] = self._prev
            self._prev = None
            self._active = False

    def profile(self, label: Optional[str] = None) -> Profile:
        """Aggregate every profiled Environment into one Profile."""
        return Profile.from_profilers(label or self.label, self.profilers)
