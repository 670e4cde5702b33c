"""Exporter schema checks: Chrome trace_event JSON, manifests, tables."""

import json

import pytest

pytestmark = pytest.mark.trace

from repro.trace import (
    Tracer,
    format_utilization_table,
    run_manifest,
    to_chrome_trace,
    utilization_summary,
    write_chrome_trace,
    write_run_manifest,
)


class Clock:
    def __init__(self):
        self.now = 0.0


@pytest.fixture
def traced():
    """A small tracer with two tracks, labels and counters."""
    clk = Clock()
    tr = Tracer(clk)
    tr.register_track(0, "pe0")
    tr.register_track(10_000, "commthread-n0t2")
    tr.record(0, "integrate", 0.0, 100.0)
    tr.record(0, "pme", 100.0, 250.0)
    tr.record(0, "idle", 250.0, 400.0)
    tr.record(10_000, "comm", 0.0, 400.0)
    tr.counters.update({"converse.msgs_sent": 12, "l2.atomic_ops": 34})
    return tr


def test_chrome_trace_schema(traced):
    doc = to_chrome_trace(traced, scale=0.5, process_name="unit")
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    events = doc["traceEvents"]
    assert isinstance(events, list)
    by_ph = {}
    for ev in events:
        by_ph.setdefault(ev["ph"], []).append(ev)

    # Complete ("X") events: one per span, with required fields.
    assert len(by_ph["X"]) == len(traced.spans)
    for ev in by_ph["X"]:
        assert set(ev) >= {"name", "ph", "ts", "dur", "pid", "tid"}
        assert ev["dur"] >= 0
    # scale applied: the 100-cycle integrate span becomes 50 time units.
    integ = next(e for e in by_ph["X"] if e["name"] == "integrate")
    assert integ["ts"] == 0.0 and integ["dur"] == 50.0

    # Metadata ("M"): process_name plus one thread_name per track.
    names = {(ev["name"], ev["tid"]): ev["args"]["name"] for ev in by_ph["M"]}
    assert names[("process_name", 0)] == "unit"
    assert names[("thread_name", 0)] == "pe0"
    assert names[("thread_name", 10_000)] == "commthread-n0t2"

    # Counter ("C") events: one per counter, cumulative value at trace end.
    counters = {ev["name"]: ev["args"]["value"] for ev in by_ph["C"]}
    assert counters == {"converse.msgs_sent": 12, "l2.atomic_ops": 34}


def test_chrome_trace_category_colors(traced):
    doc = to_chrome_trace(traced)
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    # Paper's legend mapping survives into the Chrome palette.
    assert next(e for e in xs if e["name"] == "integrate")["cname"] == "terrible"
    assert next(e for e in xs if e["name"] == "pme")["cname"] == "good"
    assert next(e for e in xs if e["name"] == "idle")["cname"] == "white"


def test_chrome_trace_json_roundtrip(traced, tmp_path):
    path = write_chrome_trace(
        traced, str(tmp_path / "t.trace.json"), metadata={"run": "unit"}
    )
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["otherData"] == {"run": "unit"}
    assert doc == to_chrome_trace(traced, metadata={"run": "unit"})


def test_utilization_summary_rows(traced):
    rows = utilization_summary(traced)
    assert [r["label"] for r in rows] == ["pe0", "commthread-n0t2", "all"]
    pe0 = rows[0]
    assert pe0["busy"] == pytest.approx(250.0 / 400.0)
    assert pe0["useful"] == pytest.approx(250.0 / 400.0)
    assert pe0["categories"] == {"integrate": 100.0, "pme": 150.0, "idle": 150.0}
    ct = rows[1]
    assert ct["busy"] == pytest.approx(1.0)
    assert ct["useful"] == 0.0
    allrow = rows[-1]
    assert allrow["track"] == -1
    assert allrow["busy"] == pytest.approx((250.0 + 400.0) / 800.0)


def test_utilization_table_renders(traced):
    table = format_utilization_table(traced, scale=0.01, unit="us")
    lines = table.splitlines()
    assert "busy%" in lines[0] and "pme (us)" in lines[0]
    assert lines[1].strip("- ") == ""  # separator row
    assert any(line.lstrip().startswith("pe0") for line in lines)
    assert any(line.lstrip().startswith("all") for line in lines)


def test_run_manifest_schema(traced):
    man = run_manifest(traced, label="unit", scale=0.5, time_unit="half-cycles",
                       nnodes=2, steps=3)
    assert set(man) == {
        "label", "time_unit", "span", "counters",
        "utilization", "useful_categories", "meta",
    }
    assert man["label"] == "unit"
    assert man["span"] == [0.0, 200.0]  # scaled
    assert man["counters"]["converse.msgs_sent"] == 12
    assert man["meta"] == {"nnodes": 2, "steps": 3}
    # scale applied to per-category times too.
    pe0 = next(r for r in man["utilization"] if r["label"] == "pe0")
    assert pe0["categories"]["integrate"] == 50.0
    assert "pme" in man["useful_categories"]


def test_run_manifest_json_roundtrip(traced, tmp_path):
    path = write_run_manifest(traced, str(tmp_path / "m.json"), label="unit")
    with open(path) as fh:
        man = json.load(fh)
    assert man["label"] == "unit"
    assert man["counters"] == {"converse.msgs_sent": 12, "l2.atomic_ops": 34}


def test_format_manifest_report(traced):
    from repro.harness.report import format_manifest

    text = format_manifest(run_manifest(traced, label="unit", time_unit="cyc"))
    assert "unit" in text
    assert "converse.msgs_sent" in text
    assert "pe0" in text


def test_empty_tracer_exports_cleanly(tmp_path):
    tr = Tracer(Clock())
    doc = to_chrome_trace(tr)
    assert [e["ph"] for e in doc["traceEvents"]] == ["M"]  # just process_name
    man = run_manifest(tr)
    assert man["span"] == [0.0, 0.0]
    assert man["counters"] == {}
    # utilization has only the aggregate row, and it is all-zero.
    assert [r["label"] for r in man["utilization"]] == ["all"]
    assert man["utilization"][0]["busy"] == 0.0
