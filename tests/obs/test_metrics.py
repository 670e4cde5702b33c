"""Metrics registry: counters/gauges/histograms, snapshots, Prometheus text."""

import json

import pytest

from repro.obs import LATENCY_BUCKETS_S, MetricsRegistry, percentile
from repro.obs.metrics import Counter, Gauge, Histogram, _format_float, _prom_label_value, _prom_name


# -- percentile (the canonical nearest-rank shared with servebench) -----


def test_percentile_empty_and_single():
    assert percentile([], 0.5) == 0.0
    assert percentile([3.0], 0.0) == 3.0
    assert percentile([3.0], 1.0) == 3.0


def test_percentile_nearest_rank():
    vals = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(vals, 0.0) == 1.0
    assert percentile(vals, 0.5) == 3.0
    assert percentile(vals, 1.0) == 5.0


# -- metric types ------------------------------------------------------


def test_counter_inc_and_negative_rejected():
    reg = MetricsRegistry()
    c = reg.counter("jobs", "jobs seen")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set():
    reg = MetricsRegistry()
    g = reg.gauge("depth", "queue depth")
    g.set(5)
    g.set(7)
    assert g.value == 7


def test_histogram_buckets_and_percentiles():
    reg = MetricsRegistry()
    h = reg.histogram("lat", "latency", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 0.5, 5.0, 50.0):
        h.observe(v)
    assert h.count == 5
    assert h.sum == pytest.approx(56.05)
    # cumulative(): le=0.1 -> 1, le=1.0 -> 3, le=10.0 -> 4, +Inf -> 5
    assert h.cumulative() == [
        (0.1, 1),
        (1.0, 3),
        (10.0, 4),
        (float("inf"), 5),
    ]
    assert h.percentile(0.5) == 0.5
    assert h.percentile(1.0) == 50.0


def test_histogram_percentile_matches_module_percentile():
    h = MetricsRegistry().histogram("x", "x", buckets=LATENCY_BUCKETS_S)
    vals = [0.31 * (i % 7) + 0.01 for i in range(40)]
    for v in vals:
        h.observe(v)
    for q in (0.0, 0.5, 0.9, 0.99, 1.0):
        assert h.percentile(q) == percentile(vals, q)


def test_labels_create_child_series():
    reg = MetricsRegistry()
    c = reg.counter("done", "jobs", labels=("state",))
    c.labels(state="ok").inc()
    c.labels(state="ok").inc()
    c.labels(state="failed").inc()
    snap = reg.snapshot()
    series = snap["done"]["series"]
    assert {(s["labels"]["state"], s["value"]) for s in series} == {
        ("ok", 2.0),
        ("failed", 1.0),
    }


def test_registry_get_or_create_and_type_conflict():
    reg = MetricsRegistry()
    c1 = reg.counter("a", "help")
    assert reg.counter("a", "help") is c1
    assert reg.get("a") is c1
    assert reg.get("missing") is None
    with pytest.raises(ValueError):
        reg.gauge("a", "help")


def test_snapshot_is_deterministic_and_json_safe():
    reg = MetricsRegistry()
    reg.counter("z", "z").inc()
    reg.gauge("a", "a").set(1)
    h = reg.histogram("m", "m", buckets=(1.0,))
    h.observe(0.5)
    snap1 = reg.snapshot()
    snap2 = reg.snapshot()
    assert snap1 == snap2
    assert list(snap1) == sorted(snap1)
    json.dumps(snap1)  # must be serializable as-is


# -- Prometheus text exposition ---------------------------------------


def test_prometheus_text_histogram_shape():
    reg = MetricsRegistry()
    h = reg.histogram("slice_s", "slice durations", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    text = reg.prometheus_text()
    assert '# TYPE slice_s histogram' in text
    assert 'slice_s_bucket{le="0.1"} 1' in text
    assert 'slice_s_bucket{le="1"} 2' in text
    assert 'slice_s_bucket{le="+Inf"} 2' in text
    assert "slice_s_count 2" in text
    assert text.endswith("\n")


def test_prometheus_label_escaping():
    reg = MetricsRegistry()
    c = reg.counter("odd", "weird labels", labels=("tag",))
    c.labels(tag='a"b\\c\nd').inc()
    text = reg.prometheus_text()
    assert 'tag="a\\"b\\\\c\\nd"' in text


def test_prometheus_name_sanitization():
    assert _prom_name("serve.queue.depth") == "serve_queue_depth"
    assert _prom_name("9lives") == "_9lives"
    assert _prom_label_value('x"y') == 'x\\"y'


def test_format_float_collapses_integers():
    assert _format_float(2.0) == "2"
    assert _format_float(0.25) == "0.25"
    assert _format_float(float("inf")) == "+Inf"


def test_write_json_and_prometheus(tmp_path):
    reg = MetricsRegistry()
    reg.counter("c", "c").inc()
    jpath = tmp_path / "m.json"
    ppath = tmp_path / "m.prom"
    reg.write_json(jpath)
    reg.write_prometheus(ppath)
    assert json.loads(jpath.read_text())["c"]["series"][0]["value"] == 1.0
    assert "c_total" in ppath.read_text() or "c 1" in ppath.read_text()
