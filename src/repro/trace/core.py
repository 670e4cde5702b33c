"""The unified tracer: harvested counters + span-based activity recording.

This is the reproduction's analogue of Charm++ **Projections** tracing
(the tool behind the paper's Figs. 3, 9 and 10): a single per-run
:class:`Tracer` that every layer of the stack — DES engine, Converse
scheduler, PAMI contexts and communication threads, the BG/Q messaging
unit, the Charm++ facade and the NAMD/FFT harnesses — reports into.

Two kinds of data are collected:

* **Counters** — named totals (messages sent/received, bytes,
  scheduler polls, L2 atomic operations, allocator pool hits...).
  Nothing counts into the tracer per event: components keep plain
  integer statistics and the runtime's finalizer harvests them into
  :attr:`Tracer.counters` at :meth:`Tracer.finish`.  The full catalogue
  lives in ``docs/TRACING.md``.

* **Spans** — contiguous activity intervals on a *track* (a PE rank or
  a communication thread).  The flat :meth:`begin`/:meth:`end` API
  matches Projections' one-activity-per-PE-at-a-time model and is what
  the scheduler's hot path uses; the :meth:`span` context manager adds
  proper nesting (an inner span suspends the outer category and
  resumes it on exit), which is what instrumented application code
  wants.

Zero-cost-when-disabled contract: components hold ``tracer`` attributes
that are ``None`` when tracing is off, and every instrumentation site
is guarded by ``if tracer is not None``: a run either has a Tracer or
has ``None``.

The tracer is deliberately free of simulation imports: it only needs an
object with a ``now`` attribute (duck-typed ``repro.sim.Environment``),
so it can be reused by the analytic-model harnesses as well.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..envvar import env_switch

__all__ = [
    "Span",
    "Tracer",
    "TracerProtocolError",
    "USEFUL_CATEGORIES",
    "OVERHEAD_CATEGORIES",
]


class TracerProtocolError(RuntimeError):
    """A span/lifecycle-protocol misuse caught under ``REPRO_SANITIZE=1``.

    Raised when the flat :meth:`Tracer.begin` API preempts an activity
    owned by an active :meth:`Tracer.span` context manager — the mix
    that used to make the context-manager exit fabricate a resumed span
    over time the track had explicitly relinquished, double-counting it
    as busy — and when any recording call lands on a tracer that
    :meth:`Tracer.finish` already sealed (a cancelled job's late
    callbacks would otherwise mutate data an exported manifest claims
    is final).  Outside sanitized runs the tracer self-heals instead:
    the preempted context manager skips its resume, and post-finish
    recording is dropped.
    """

#: Categories counted as "useful work" when computing utilization, as in
#: the paper's "(total CPU utilization, useful work utilization)" labels.
USEFUL_CATEGORIES = frozenset(
    {"integrate", "nonbonded", "pme", "bonded", "compute", "fft"}
)
#: Categories counted as busy (useful + overhead) but not idle.
OVERHEAD_CATEGORIES = frozenset({"comm", "sched", "alloc", "pack", "unpack"})


@dataclass(frozen=True)
class Span:
    """One contiguous activity interval on one track.

    ``track`` is an integer: PE rank for worker threads, or an offset id
    for communication threads (see :meth:`Tracer.register_track`).
    """

    track: int
    category: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Per-run tracing and metrics hub (Projections analogue).

    ``env`` is the clock source: anything with a ``now`` attribute.
    """

    def __init__(self, env: Any) -> None:
        self.env = env
        #: Named counters, assigned by finalizers at :meth:`finish`
        #: (see docs/TRACING.md for the catalogue).
        self.counters: Dict[str, float] = {}
        #: Closed activity spans, in close order.
        self.spans: List[Span] = []
        #: Human-readable labels for non-PE tracks (comm threads...).
        self.track_labels: Dict[int, str] = {}
        # Open activity per track: (category, start, owner).  owner is
        # None for flat begin()s, or a per-span() token object so the
        # context manager can tell on exit whether it still owns the
        # track (see span() and TracerProtocolError).
        self._open: Dict[int, Tuple[str, float, Optional[object]]] = {}
        self._nest: Dict[int, List[List[Any]]] = {}
        self._finalizers: List[Any] = []
        #: Instant events ``(track, name, time)`` — e.g. fault-injection
        #: marks; rendered as Chrome-trace instants by the exporter.
        self.marks: List[Tuple[int, str, float]] = []
        #: Causal message-provenance events, in record order (see
        #: :meth:`msg_send`; schema in docs/TRACING.md).
        self.provenance: List[Tuple[Any, ...]] = []
        #: Simulated hardware-performance-monitor groups, one dict of
        #: counters per node id; assigned at finish() by the Converse
        #: runtime's harvest (``ConverseRuntime._flush_stats``).
        self.hpm: Dict[int, Dict[str, float]] = {}
        # Same contract as the engine's REPRO_SANITIZE: sampled once at
        # construction; strict mode turns span-protocol misuse into
        # TracerProtocolError instead of self-healing.
        self._strict = env_switch("REPRO_SANITIZE")
        # Set by finish(): the tracer is sealed — finish() is
        # idempotent (finalizers run exactly once) and recording calls
        # are rejected (strict) or dropped (self-heal).
        self._finished = False

    def _sealed(self, what: str) -> bool:
        """True (and self-heal by dropping) if recording after finish."""
        if not self._finished:
            return False
        if self._strict:
            raise TracerProtocolError(
                f"{what} on a finished Tracer — finish() sealed this "
                "trace (its manifest may already be exported); a "
                "cancelled or reused job must record into a fresh Tracer"
            )
        return True

    # -- instant events ----------------------------------------------------
    def mark(self, track: int, name: str) -> None:
        """Record a zero-duration instant event on ``track`` at ``now``."""
        if self._finished and self._sealed("mark()"):
            return
        self.marks.append((track, name, self.env.now))

    # -- causal message provenance ----------------------------------------
    # Every Converse message gets a monotonic (src_pe, seq) id stamped at
    # send time (only when tracing — the id rides in host-side tuples, so
    # stamping is cycle-neutral).  Three event kinds turn a trace into a
    # dependency DAG (repro.trace.provenance builds it):
    #
    #   ("send", msg_id, src_track, dst_pe, nbytes, t)
    #   ("recv", msg_id, dst_track, t)          # arrival at the dest PE queue
    #   ("exec", msg_id, track, t0, t1)         # handler execution interval
    #
    # Retransmits re-deliver the same payload object, so a msg_id can
    # legitimately appear in more than one recv event; analysis keeps the
    # first.
    #
    # The per-message hot paths (converse/machine.py send/deliver,
    # converse/scheduler.py execute) append these tuples to
    # ``self.provenance`` directly inside their tracer guard — a method
    # call per message event does not fit the <5% tracer overhead budget
    # (benchmarks/test_trace_overhead.py).  Keep the schemas in sync.
    def msg_send(self, msg_id: Any, track: int, dst: int, nbytes: int) -> None:
        """Record the send edge of message ``msg_id`` from ``track``."""
        if self._finished and self._sealed("msg_send()"):
            return
        self.provenance.append(("send", msg_id, track, dst, nbytes, self.env.now))

    def msg_recv(self, msg_id: Any, track: int) -> None:
        """Record message arrival at the destination track's queue."""
        if self._finished and self._sealed("msg_recv()"):
            return
        self.provenance.append(("recv", msg_id, track, self.env.now))

    def msg_exec(self, msg_id: Any, track: int, start: float, end: float) -> None:
        """Record the handler-execution interval for ``msg_id``."""
        if self._finished and self._sealed("msg_exec()"):
            return
        self.provenance.append(("exec", msg_id, track, start, end))

    # -- track identity ----------------------------------------------------
    def register_track(self, track: int, label: str) -> None:
        """Name a track (e.g. ``register_track(10000, "commthread-0")``)."""
        self.track_labels[track] = label

    def label_of(self, track: int) -> str:
        return self.track_labels.get(track, f"pe{track}")

    # -- spans: flat begin/end (scheduler hot path) ------------------------
    def begin(self, track: int, category: str) -> None:
        """Start activity ``category`` on ``track``, closing any open one."""
        if self._finished and self._sealed("begin()"):
            return
        self._begin(track, category, None)

    def _begin(self, track: int, category: str, owner: Optional[object]) -> None:
        now = self.env.now
        prev = self._open.get(track)
        if prev is not None:
            cat, t0, prev_owner = prev
            if prev_owner is not None and owner is None and self._strict:
                raise TracerProtocolError(
                    f"begin({track}, {category!r}) preempts the "
                    f"{cat!r} activity owned by an active span() context "
                    "manager — use a nested span(), or end the context "
                    "before switching to the flat API"
                )
            if now > t0:
                self.spans.append(Span(track, cat, t0, now))
        self._open[track] = (category, now, owner)

    def end(self, track: int) -> None:
        """Close the open activity on ``track`` (no-op if none)."""
        if self._finished and self._sealed("end()"):
            return
        prev = self._open.pop(track, None)
        if prev is not None:
            cat, t0, _ = prev
            now = self.env.now
            if now > t0:
                self.spans.append(Span(track, cat, t0, now))

    def record(self, track: int, category: str, start: float, end: float) -> None:
        """Record a fully-known span directly."""
        if self._finished and self._sealed("record()"):
            return
        if end < start:
            raise ValueError("span end precedes start")
        if end > start:
            self.spans.append(Span(track, category, start, end))

    @contextmanager
    def span(self, track: int, category: str) -> Iterator[None]:
        """Nested activity recording.

        Entering starts ``category`` on ``track``; exiting resumes
        whatever category was active before (or closes the track).  The
        resulting spans stay flat and non-overlapping — an inner span
        splits its parent into before/after segments, which is what the
        timeline renderers and the Chrome exporter expect.
        """
        if self._finished and self._sealed("span()"):
            yield
            return
        prev = self._open.get(track)
        stack = self._nest.setdefault(track, [])
        entry: Optional[List[Any]] = None
        if prev is not None:
            # Remember what to resume *and* who owned it, so a nested
            # span() hands the track back to its enclosing span().
            entry = [prev[0], prev[2]]
            stack.append(entry)
        owner = object()
        self._begin(track, category, owner)
        try:
            yield
        finally:
            if entry is not None:
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i] is entry:
                        del stack[i]
                        break
            cur = self._open.get(track)
            if cur is not None and cur[2] is owner:
                if entry is not None:
                    self._begin(track, entry[0], entry[1])
                else:
                    self.end(track)
            # else: a flat begin()/end() took the track away mid-span
            # (raises under REPRO_SANITIZE=1, see _begin).  Self-heal by
            # NOT resuming: the pre-fix code re-opened the suspended
            # category here, fabricating busy time over an interval the
            # track had already ended — the double-counting bug.

    def add_finalizer(self, fn: Any) -> None:
        """Register a zero-arg callable run by :meth:`finish`.

        Hot components never report per event — they keep plain
        integer statistics (hardware-perf-counter style, always on, an
        int add each) and a finalizer snapshots them into
        :attr:`counters` when the run ends.  Snapshots must *assign*
        (not add) so finish() stays idempotent.
        """
        self._finalizers.append(fn)

    def finish(self) -> None:
        """Close all open spans and harvest component-maintained counters.

        Idempotent: the first call seals the tracer; later calls are
        no-ops, so finalizers run exactly once no matter how many
        teardown paths reach a job (normal completion, cancellation,
        service shutdown).  After sealing, recording calls raise
        :class:`TracerProtocolError` under ``REPRO_SANITIZE=1`` and are
        silently dropped otherwise — an exported manifest stays the
        final word on the run.
        """
        if self._finished:
            return
        for track in list(self._open):
            self.end(track)
        self._nest.clear()
        # The DES engine counts processed events with a bare int (its
        # hottest loop; a tracer call there costs ~10% wall time).
        n = getattr(self.env, "events_executed", 0)
        if n:
            self.counters["engine.events"] = n
        for fn in self._finalizers:
            fn()
        self._finished = True

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has sealed this tracer."""
        return self._finished

    # -- queries -----------------------------------------------------------
    def tracks(self) -> List[int]:
        return sorted({s.track for s in self.spans})

    def categories(self) -> List[str]:
        return sorted({s.category for s in self.spans})

    def time_span(self) -> Tuple[float, float]:
        if not self.spans:
            return (0.0, 0.0)
        return (
            min(s.start for s in self.spans),
            max(s.end for s in self.spans),
        )

    def utilization(self, track: Optional[int] = None) -> Tuple[float, float]:
        """Return (total busy fraction, useful-work fraction).

        Mirrors the "(total CPU utilization, useful work utilization)"
        pair printed on the paper's Projections timeline figures.
        """
        t0, t1 = self.time_span()
        horizon = t1 - t0
        if horizon <= 0:
            return (0.0, 0.0)
        spans = [s for s in self.spans if track is None or s.track == track]
        ntracks = len({s.track for s in spans}) or 1
        busy = sum(s.duration for s in spans if s.category != "idle")
        useful = sum(s.duration for s in spans if s.category in USEFUL_CATEGORIES)
        denom = horizon * ntracks
        return (busy / denom, useful / denom)

    def category_times(self, track: int) -> Dict[str, float]:
        """Total time per category on one track."""
        out: Dict[str, float] = {}
        for s in self.spans:
            if s.track == track:
                out[s.category] = out.get(s.category, 0.0) + s.duration
        return out
