"""Exporter edge cases: empty, zero-duration, counter-only, unused tracks."""

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


def _phases(doc):
    out = {}
    for ev in doc["traceEvents"]:
        out.setdefault(ev["ph"], []).append(ev)
    return out


def test_empty_trace_roundtrips_through_files(tmp_path):
    tr = Tracer(Clock())
    tr.finish()
    cpath = write_chrome_trace(tr, str(tmp_path / "e.trace.json"))
    mpath = write_run_manifest(tr, str(tmp_path / "e.manifest.json"))
    with open(cpath) as fh:
        cdoc = json.load(fh)
    with open(mpath) as fh:
        mdoc = json.load(fh)
    assert [e["ph"] for e in cdoc["traceEvents"]] == ["M"]
    assert "provenance" not in cdoc and "hpm" not in cdoc
    assert mdoc["span"] == [0.0, 0.0]
    assert "messages" not in mdoc and "critical_path" not in mdoc
    assert "hpm" not in mdoc


def test_zero_duration_activity_never_exports_spans():
    clk = Clock()
    tr = Tracer(clk)
    clk.now = 5.0
    tr.begin(0, "sched")
    tr.end(0)          # same timestamp: zero-duration, dropped
    tr.begin(0, "comm")
    tr.begin(0, "pme")  # flat preemption at the same instant
    tr.end(0)
    tr.record(1, "idle", 3.0, 3.0)  # explicit zero-duration record
    tr.finish()
    assert tr.spans == []
    doc = to_chrome_trace(tr)
    assert _phases(doc).get("X") is None
    man = run_manifest(tr)
    assert [r["label"] for r in man["utilization"]] == ["all"]


def test_counter_only_run_exports_counters_at_t0():
    tr = Tracer(Clock())
    tr.add_finalizer(lambda: tr.counters.update(
        {"converse.msgs_sent": 7, "l2.atomic_ops": 99}))
    tr.finish()
    doc = to_chrome_trace(tr, scale=0.5)
    phases = _phases(doc)
    assert "X" not in phases
    counters = {e["name"]: e["args"]["value"] for e in phases["C"]}
    assert counters == {"converse.msgs_sent": 7, "l2.atomic_ops": 99}
    # With no spans the time span collapses to 0; C samples land at 0.
    assert all(e["ts"] == 0.0 for e in phases["C"])
    man = run_manifest(tr)
    assert man["counters"]["l2.atomic_ops"] == 99
    assert man["span"] == [0.0, 0.0]


def test_registered_but_unused_tracks_keep_their_names():
    clk = Clock()
    tr = Tracer(clk)
    tr.register_track(0, "pe0")
    tr.register_track(10_000, "commthread-n0t2")  # never records anything
    tr.record(0, "compute", 0.0, 10.0)
    tr.finish()
    doc = to_chrome_trace(tr)
    names = {
        e["tid"]: e["args"]["name"]
        for e in _phases(doc)["M"]
        if e["name"] == "thread_name"
    }
    # The idle comm thread still shows up as a named (empty) row.
    assert names == {0: "pe0", 10_000: "commthread-n0t2"}
    assert {e["tid"] for e in _phases(doc).get("X", [])} == {0}


def test_mark_only_track_gets_thread_name():
    clk = Clock()
    tr = Tracer(clk)
    clk.now = 2.0
    tr.mark(77, "fault.injected")
    tr.finish()
    doc = to_chrome_trace(tr)
    phases = _phases(doc)
    named = {e["tid"] for e in phases["M"] if e["name"] == "thread_name"}
    assert 77 in named
    assert phases["i"][0]["name"] == "fault.injected"


def test_utilization_exporters_tolerate_empty_tracer():
    tr = Tracer(Clock())
    tr.finish()
    rows = utilization_summary(tr)
    assert [r["label"] for r in rows] == ["all"]
    table = format_utilization_table(tr)
    assert "busy%" in table  # renders headers + the all row, no crash


def test_provenance_without_spans_still_exports():
    clk = Clock()
    tr = Tracer(clk)
    tr.msg_send((0, 1), 0, 1, 64)
    clk.now = 4.0
    tr.msg_recv((0, 1), 1)
    tr.msg_exec((0, 1), 1, 4.0, 6.0)
    tr.finish()
    doc = to_chrome_trace(tr, scale=2.0)
    # Provenance rides along, scaled like ts/dur.
    send, recv, ex = doc["provenance"]
    assert send[0] == "send" and send[-1] == 0.0
    assert recv[-1] == 8.0
    assert ex[3] == 8.0 and ex[4] == 12.0
    # Flow arrows pair the send/recv edge.
    phases = _phases(doc)
    assert [e["ph"] for e in phases.get("s", [])] == ["s"]
    assert phases["f"][0]["bp"] == "e"
    man = run_manifest(tr, scale=2.0)
    assert man["messages"]["latency"]["max"] == 8.0
    # The path is the message flight plus its handler execution.
    assert man["critical_path"]["nsegments"] == 2
    assert man["critical_path"]["exec_time"] == 4.0
    assert man["critical_path"]["xfer_time"] == 8.0
