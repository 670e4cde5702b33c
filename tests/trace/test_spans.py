"""Span recording: flat begin/end, direct record, and nested spans."""

import pytest

pytestmark = pytest.mark.trace

from repro.trace import Span, Tracer


class Clock:
    """Minimal duck-typed env: the tracer only reads ``.now``."""

    def __init__(self):
        self.now = 0.0


def test_begin_end_produces_one_span():
    clk = Clock()
    tr = Tracer(clk)
    tr.begin(0, "compute")
    clk.now = 10.0
    tr.end(0)
    assert tr.spans == [Span(0, "compute", 0.0, 10.0)]
    assert tr.spans[0].duration == 10.0


def test_begin_closes_previous_activity():
    clk = Clock()
    tr = Tracer(clk)
    tr.begin(2, "comm")
    clk.now = 4.0
    tr.begin(2, "idle")  # implicit end of "comm"
    clk.now = 9.0
    tr.end(2)
    assert tr.spans == [Span(2, "comm", 0.0, 4.0), Span(2, "idle", 4.0, 9.0)]


def test_zero_length_spans_dropped():
    clk = Clock()
    tr = Tracer(clk)
    tr.begin(0, "compute")
    tr.end(0)  # no time elapsed
    tr.record(0, "comm", 5.0, 5.0)
    assert tr.spans == []


def test_record_rejects_backwards_interval():
    tr = Tracer(Clock())
    with pytest.raises(ValueError):
        tr.record(0, "comm", 10.0, 3.0)


def test_end_without_begin_is_noop():
    tr = Tracer(Clock())
    tr.end(5)
    assert tr.spans == []


def test_nested_span_resumes_outer_category():
    clk = Clock()
    tr = Tracer(clk)
    tr.begin(0, "pme")
    clk.now = 3.0
    with tr.span(0, "fft"):
        clk.now = 7.0
    clk.now = 12.0
    tr.end(0)
    # Inner span splits the outer into before/after; spans stay flat.
    assert tr.spans == [
        Span(0, "pme", 0.0, 3.0),
        Span(0, "fft", 3.0, 7.0),
        Span(0, "pme", 7.0, 12.0),
    ]


def test_doubly_nested_spans():
    clk = Clock()
    tr = Tracer(clk)
    with tr.span(1, "compute"):
        clk.now = 2.0
        with tr.span(1, "pack"):
            clk.now = 3.0
            with tr.span(1, "alloc"):
                clk.now = 4.0
            clk.now = 5.0
        clk.now = 8.0
    cats = [s.category for s in sorted(tr.spans, key=lambda s: s.start)]
    assert cats == ["compute", "pack", "alloc", "pack", "compute"]
    # No overlaps, full coverage of [0, 8].
    ordered = sorted(tr.spans, key=lambda s: s.start)
    assert ordered[0].start == 0.0 and ordered[-1].end == 8.0
    for a, b in zip(ordered, ordered[1:]):
        assert a.end == b.start


def test_span_without_outer_closes_track():
    clk = Clock()
    tr = Tracer(clk)
    with tr.span(0, "fft"):
        clk.now = 6.0
    assert tr.spans == [Span(0, "fft", 0.0, 6.0)]
    assert 0 not in tr._open


def test_finish_closes_all_open_tracks():
    clk = Clock()
    tr = Tracer(clk)
    tr.begin(0, "compute")
    tr.begin(1, "comm")
    clk.now = 5.0
    tr.finish()
    assert {(s.track, s.category, s.end) for s in tr.spans} == {
        (0, "compute", 5.0),
        (1, "comm", 5.0),
    }


def test_queries_and_utilization():
    clk = Clock()
    tr = Tracer(clk)
    tr.record(0, "compute", 0.0, 6.0)
    tr.record(0, "idle", 6.0, 10.0)
    tr.record(1, "comm", 0.0, 10.0)
    assert tr.tracks() == [0, 1]
    assert tr.categories() == ["comm", "compute", "idle"]
    assert tr.time_span() == (0.0, 10.0)
    busy, useful = tr.utilization()
    assert busy == pytest.approx((6.0 + 10.0) / 20.0)
    assert useful == pytest.approx(6.0 / 20.0)
    busy0, useful0 = tr.utilization(track=0)
    assert busy0 == pytest.approx(0.6)
    assert useful0 == pytest.approx(0.6)
    assert tr.category_times(0) == {"compute": 6.0, "idle": 4.0}


def test_track_labels():
    tr = Tracer(Clock())
    tr.register_track(10_000, "commthread-n0t2")
    assert tr.label_of(10_000) == "commthread-n0t2"
    assert tr.label_of(3) == "pe3"

