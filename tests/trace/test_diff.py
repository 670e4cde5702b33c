"""Trace-diff engine: exact equality, the count-note rule, manifest loading."""

import json
import pathlib

import pytest

pytestmark = pytest.mark.trace

from repro.trace.__main__ import main
from repro.trace.diff import diff_manifests, format_diff, load_manifest

BASELINES = pathlib.Path(__file__).parents[2] / "benchmarks" / "baselines"


def _manifest(**over):
    doc = {
        "label": "base",
        "time_unit": "us",
        "counters": {
            "converse.msgs_sent": 100.0,
            "engine.events": 5000,
            "hpm.mu.descriptors": 40.0,
            "hpm.mu.rfifo_occupancy_hwm": 10.0,
        },
        "utilization": [
            {"track": 0, "label": "pe0", "busy": 0.80, "useful": 0.60},
            {"track": -1, "label": "all", "busy": 0.50, "useful": 0.30},
        ],
        "critical_path": {"length": 1000.0, "nsegments": 20,
                          "exec_time": 700.0, "xfer_time": 100.0},
    }
    doc.update(over)
    return doc


def test_identical_manifests_pass():
    result = diff_manifests(_manifest(), _manifest())
    assert result["ok"]
    assert result["violations"] == [] and result["notes"] == []
    assert "OK" in format_diff(result)


def test_counter_outside_tolerance_fails():
    cand = _manifest()
    cand["counters"]["converse.msgs_sent"] = 101.0  # any drift fails
    result = diff_manifests(_manifest(), cand)
    assert not result["ok"]
    (v,) = result["violations"]
    assert v["path"] == "/counters/converse.msgs_sent"
    assert (v["baseline"], v["candidate"]) == (100.0, 101.0)
    assert "FAIL /counters/converse.msgs_sent" in format_diff(result)


def test_missing_counter_is_a_violation():
    cand = _manifest()
    del cand["counters"]["hpm.mu.descriptors"]
    result = diff_manifests(_manifest(), cand)
    assert not result["ok"]
    (v,) = result["violations"]
    assert v["path"] == "/counters/hpm.mu.descriptors"
    assert v["why"] == "present on only one side"
    assert v["candidate"] is None


def test_utilization_delta_checked_absolutely():
    cand = _manifest()
    cand["utilization"][0]["busy"] = 0.84
    result = diff_manifests(_manifest(), cand)
    assert not result["ok"]
    assert result["violations"][0]["path"] == "/utilization/0/busy"


def test_critical_path_length_drift_fails():
    cand = _manifest()
    cand["critical_path"] = dict(cand["critical_path"], length=1001.0)
    result = diff_manifests(_manifest(), cand)
    assert not result["ok"]
    assert result["violations"][0]["path"] == "/critical_path/length"


def test_segment_count_drift_fails():
    cand = _manifest()
    cand["critical_path"] = dict(cand["critical_path"], nsegments=25)
    result = diff_manifests(_manifest(), cand)
    assert not result["ok"]
    assert result["violations"][0]["path"] == "/critical_path/nsegments"


def test_event_count_alone_is_a_note():
    cand = _manifest()
    cand["counters"]["engine.events"] = 4000
    result = diff_manifests(_manifest(), cand)
    assert result["ok"]
    assert result["violations"] == []
    (n,) = result["notes"]
    assert n["path"] == "/counters/engine.events"
    assert "note /counters/engine.events" in format_diff(result)
    # Beside a real difference it stays a note; the other one fails.
    cand["counters"]["converse.msgs_sent"] = 99.0
    result = diff_manifests(_manifest(), cand)
    assert [v["path"] for v in result["violations"]] == ["/counters/converse.msgs_sent"]
    assert len(result["notes"]) == 1


def test_list_length_and_key_escaping():
    cand = _manifest(extra={"a/b": 1})
    cand["utilization"] = cand["utilization"][:1]
    paths = [v["path"] for v in diff_manifests(_manifest(), cand)["violations"]]
    assert paths == ["/utilization/1", "/extra"]
    nested = diff_manifests(_manifest(extra={"a/b": 1}), cand)["violations"]
    assert [v["path"] for v in nested] == ["/utilization/1"]
    cand["extra"]["a/b"] = 2
    nested = diff_manifests(_manifest(extra={"a/b": 1}), cand)["violations"]
    assert nested[-1]["path"] == "/extra/a~1b"


def test_load_manifest_rejects_chrome_traces(tmp_path):
    p = tmp_path / "x.trace.json"
    p.write_text(json.dumps({"traceEvents": []}))
    with pytest.raises(ValueError, match="Chrome trace"):
        load_manifest(str(p))
    m = tmp_path / "m.manifest.json"
    m.write_text(json.dumps(_manifest()))
    assert load_manifest(str(m))["label"] == "base"


def _scale(section, key, factor):
    return lambda d: d[section].__setitem__(key, round(d[section][key] * factor))


def _add(getter, key, delta):
    return lambda d: getter(d).__setitem__(key, getter(d)[key] + delta)


def _more_segments(d):
    cp = d["critical_path"]
    cp.update(nsegments=cp["nsegments"] + 7, length=cp["length"] * 1.09)


#: Six edits to a committed baseline, each of which the former tolerance
#: gate (10 % counters, 0.05 utilization, 10 % critical path, no hpm or
#: messages comparison) let through.
SIX_EDITS = {
    "/counters/sched.polls": _scale("counters", "sched.polls", 1.09),
    "/counters/hpm.mu.rfifo_occupancy_hwm":
        _scale("counters", "hpm.mu.rfifo_occupancy_hwm", 1.9),
    "/utilization/0/busy": _add(lambda d: d["utilization"][0], "busy", 0.04),
    "/critical_path/nsegments": _more_segments,
    "/hpm/0/mu.descriptors": _add(lambda d: d["hpm"]["0"], "mu.descriptors", 40),
    "/messages/latency/mean":
        lambda d: d["messages"]["latency"].__setitem__(
            "mean", d["messages"]["latency"]["mean"] * 2),
}


@pytest.mark.parametrize("path", list(SIX_EDITS))
def test_seeded_baseline_edit_fails_diff(path, tmp_path, capsys):
    base = BASELINES / "gate_fig9_ct.manifest.json"
    doc = json.loads(base.read_text())
    SIX_EDITS[path](doc)
    bad = tmp_path / "edited.manifest.json"
    bad.write_text(json.dumps(doc, indent=1))
    assert main(["diff", str(base), str(bad)]) == 1
    assert f"FAIL {path} " in capsys.readouterr().out


def test_event_count_edit_passes_with_a_note(tmp_path, capsys):
    base = BASELINES / "gate_fig9_ct.manifest.json"
    doc = json.loads(base.read_text())
    doc["counters"]["engine.events"] -= 1000
    cand = tmp_path / "fewer-events.manifest.json"
    cand.write_text(json.dumps(doc, indent=1))
    assert main(["diff", str(base), str(cand)]) == 0
    out = capsys.readouterr().out
    assert "note /counters/engine.events" in out and "FAIL" not in out


@pytest.mark.parametrize("kind", ["missing", "chrome", "not-json"])
def test_bad_artifact_exits_2_with_a_named_error(kind, tmp_path, capsys):
    good = str(BASELINES / "gate_fig3_std.manifest.json")
    bad = tmp_path / f"{kind}.json"
    if kind == "chrome":
        bad.write_text(json.dumps({"traceEvents": []}))
    elif kind == "not-json":
        bad.write_text("{truncated")
    assert main(["diff", good, str(bad)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(bad) in err[0]
    assert main(["analyze", str(bad)]) == (0 if kind == "chrome" else 2)
