"""Span-protocol safety: flat begin()/end() preempting an active span().

The double-counting bug these tests pin down (fixed in PR 5): the
``span()`` context manager used to *unconditionally* resume the
suspended category on exit.  If the flat API had taken the track away
in the meantime — ``begin()`` called (once or twice) without a matching
``end()``, or an explicit ``end()`` — the exit fabricated a resumed
span covering time the track had already relinquished, inflating
``category_times()`` and busy utilization.  Post-fix the tracer raises
``TracerProtocolError`` under ``REPRO_SANITIZE=1`` and self-heals (no
fabricated resume) otherwise.
"""

import pytest

pytestmark = pytest.mark.trace

from repro.trace import Span, Tracer, TracerProtocolError
from repro.analysis.sanitizer import sanitized


class Clock:
    def __init__(self):
        self.now = 0.0


def test_double_begin_inside_span_no_fabricated_resume(monkeypatch):
    """The pre-fix-failing case from the issue.

    begin() twice (no end) inside a span(), then end(): before the fix,
    the span() exit re-opened "sched" at t=8 and finish() closed it at
    t=20 — 12 cycles of *idle* time double-counted as busy, i.e.
    category_times(0)["sched"] reported 14.0 instead of 2.0.
    """
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)  # self-heal mode
    clk = Clock()
    tr = Tracer(clk)
    tr.begin(0, "sched")
    clk.now = 2.0
    with tr.span(0, "work"):
        clk.now = 4.0
        tr.begin(0, "comm")      # first flat preemption (no end)
        clk.now = 5.0
        tr.begin(0, "comm")      # second begin without end
        clk.now = 6.0
        tr.end(0)                # track explicitly relinquished
        clk.now = 8.0
    clk.now = 20.0
    tr.finish()
    assert tr.category_times(0)["sched"] == 2.0
    assert tr.category_times(0)["work"] == 2.0
    assert tr.category_times(0)["comm"] == 2.0
    # Nothing may cover the idle tail [6, 20].
    assert all(s.end <= 6.0 for s in tr.spans)


def test_flat_end_inside_span_leaves_track_closed():
    clk = Clock()
    tr = Tracer(clk)
    with tr.span(3, "pme"):
        clk.now = 5.0
        tr.end(3)
        clk.now = 9.0
    clk.now = 10.0
    tr.finish()
    assert tr.spans == [Span(3, "pme", 0.0, 5.0)]


def test_spans_never_overlap_after_mixed_use(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)  # self-heal mode
    clk = Clock()
    tr = Tracer(clk)
    tr.begin(1, "sched")
    clk.now = 1.0
    with tr.span(1, "fft"):
        clk.now = 2.0
        tr.begin(1, "comm")
        clk.now = 3.0
    clk.now = 4.0
    tr.end(1)
    tr.finish()
    spans = sorted((s for s in tr.spans if s.track == 1),
                   key=lambda s: s.start)
    for a, b in zip(spans, spans[1:]):
        assert a.end <= b.start
    # The flat preemption keeps the track: comm runs [2, 4].
    assert tr.category_times(1)["comm"] == 2.0
    assert tr.category_times(1)["fft"] == 1.0


def test_nested_spans_still_resume_outer(monkeypatch):
    """Well-nested span() usage keeps its documented semantics."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)  # self-heal mode
    clk = Clock()
    tr = Tracer(clk)
    tr.begin(0, "sched")
    clk.now = 1.0
    with tr.span(0, "pme"):
        clk.now = 2.0
        with tr.span(0, "fft"):
            clk.now = 3.0
        clk.now = 4.0
    clk.now = 5.0
    tr.end(0)
    assert tr.category_times(0)["sched"] == 2.0  # [0,1] + resumed tail [4,5]
    assert tr.category_times(0)["pme"] == 2.0    # [1,2] + resumed [3,4]
    assert tr.category_times(0)["fft"] == 1.0    # [2,3]


def test_strict_mode_raises_on_flat_preemption():
    clk = Clock()
    with sanitized():
        tr = Tracer(clk)
    with tr.span(0, "pme"):
        clk.now = 1.0
        with pytest.raises(TracerProtocolError):
            tr.begin(0, "comm")


def test_strict_mode_allows_pure_flat_api():
    """begin-closes-previous is the documented hot-path idiom."""
    clk = Clock()
    with sanitized():
        tr = Tracer(clk)
    tr.begin(0, "sched")
    clk.now = 2.0
    tr.begin(0, "comm")
    clk.now = 3.0
    tr.end(0)
    assert tr.category_times(0)["sched"] == 2.0
    assert tr.category_times(0)["comm"] == 1.0


def test_strict_mode_allows_nested_spans():
    clk = Clock()
    with sanitized():
        tr = Tracer(clk)
    with tr.span(0, "pme"):
        clk.now = 1.0
        with tr.span(0, "fft"):
            clk.now = 2.0
        clk.now = 3.0
    assert tr.category_times(0)["fft"] == 1.0
    assert tr.category_times(0)["pme"] == 2.0
