"""Tests for timeline spans on the DES clock and utilization profiles."""

import numpy as np
import pytest

from repro.harness.timelines import render_ascii_timeline, utilization_profile
from repro.sim import Environment
from repro.trace import Tracer


def make_tracer():
    env = Environment()
    tracer = Tracer(env)

    def worker():
        tracer.begin(0, "integrate")
        yield env.timeout(10)
        tracer.begin(0, "pme")
        yield env.timeout(30)
        tracer.begin(0, "idle")
        yield env.timeout(60)
        tracer.end(0)

    env.process(worker())
    env.run()
    return env, tracer


def test_segments_recorded():
    _, tracer = make_tracer()
    cats = [(s.category, s.start, s.end) for s in tracer.spans]
    assert cats == [("integrate", 0, 10), ("pme", 10, 40), ("idle", 40, 100)]


def test_time_in_category():
    _, tracer = make_tracer()
    assert tracer.category_times(0) == {"integrate": 10, "pme": 30, "idle": 60}
    assert tracer.category_times(1) == {}


def test_utilization_busy_and_useful():
    _, tracer = make_tracer()
    busy, useful = tracer.utilization()
    assert busy == pytest.approx(0.4)  # 40/100 non-idle
    assert useful == pytest.approx(0.4)  # integrate+pme are useful


def test_utilization_excludes_overhead_from_useful():
    tracer = Tracer(Environment())
    tracer.record(0, "comm", 0, 50)
    tracer.record(0, "pme", 50, 100)
    busy, useful = tracer.utilization()
    assert busy == pytest.approx(1.0)
    assert useful == pytest.approx(0.5)


def test_finish_closes_open_segments():
    env = Environment()
    tracer = Tracer(env)

    def worker():
        tracer.begin(3, "nonbonded")
        yield env.timeout(25)
        # never ends explicitly

    env.process(worker())
    env.run()
    tracer.finish()
    assert len(tracer.spans) == 1
    span = tracer.spans[0]
    assert (span.track, span.category, span.start, span.end) == (3, "nonbonded", 0, 25)


def test_record_validates_order():
    tracer = Tracer(Environment())
    with pytest.raises(ValueError):
        tracer.record(0, "pme", 10, 5)


def test_zero_length_segments_dropped():
    tracer = Tracer(Environment())
    tracer.record(0, "pme", 5, 5)
    assert tracer.spans == []


def test_utilization_profile_bins_sum():
    tracer = Tracer(Environment())
    tracer.record(0, "pme", 0, 50)
    tracer.record(0, "idle", 50, 100)
    prof = utilization_profile(tracer, bins=10)
    assert prof["pme"][:5] == pytest.approx(np.ones(5))
    assert prof["pme"][5:] == pytest.approx(np.zeros(5))
    assert prof["idle"][5:] == pytest.approx(np.ones(5))


def test_utilization_profile_multi_thread_normalized():
    tracer = Tracer(Environment())
    tracer.record(0, "pme", 0, 100)
    tracer.record(1, "idle", 0, 100)
    prof = utilization_profile(tracer, bins=4)
    # Only half of track-time is pme.
    assert prof["pme"] == pytest.approx(0.5 * np.ones(4))


def test_utilization_profile_empty_raises():
    with pytest.raises(ValueError):
        utilization_profile(Tracer(Environment()))


def test_ascii_render_contains_threads_and_legend():
    _, tracer = make_tracer()
    art = render_ascii_timeline(tracer, width=40)
    assert "T  0" in art
    assert "legend:" in art
    assert "R" in art and "G" in art


def test_ascii_render_empty():
    assert "empty" in render_ascii_timeline(Tracer(Environment()))
