"""``python -m repro.trace.demo``: a traced run, its artifacts, one report."""

import json

import pytest

pytestmark = pytest.mark.trace

from repro.trace import demo


def test_demo_writes_both_artifacts_and_reports_each_section_once(tmp_path, capsys):
    assert demo.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out

    trace = json.loads((tmp_path / "trace_demo.trace.json").read_text())
    manifest = json.loads((tmp_path / "trace_demo.manifest.json").read_text())
    assert trace["traceEvents"] and trace["otherData"]["label"] == "trace-demo"
    assert manifest["label"] == "trace-demo" and manifest["utilization"]

    assert out.count("per-thread timeline:") == 1
    for header in ("-- utilization --", "-- critical path --", "-- messages --",
                   "-- simulated HPM counters --"):
        assert out.count(header) == 1, header
    # The per-track rows appear once, in the report's utilization section.
    assert sum(line.split()[:1] == ["all"] for line in out.splitlines()) == 1
    assert "== trace-demo (trace, times in us) ==" in out
    assert out.count("wrote ") == 2
