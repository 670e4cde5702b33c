"""Obs-gate self-tests (tiny scale) and baseline-diff logic."""

import pytest

from repro.harness.__main__ import main as harness_main
from repro.harness.obsgate import (
    BASELINE_TOP,
    baseline_summary,
    _check_baseline,
    obs_gate,
)
from repro.obs import Profile


def fake_profile(label, owner="Process._resume:pe*"):
    return Profile(
        label,
        [
            {"event_type": "Timeout", "owner": owner, "count": 90,
             "nanos": 9000, "deque_pops": 0, "heap_pops": 90,
             "span_first": -1, "span_last": -1},
            {"event_type": "Event", "owner": "(no-callback)", "count": 10,
             "nanos": 1000, "deque_pops": 10, "heap_pops": 0,
             "span_first": -1, "span_last": -1},
        ],
        envs=1,
    )


@pytest.mark.slow
def test_obs_gate_tiny_passes():
    failures, notes, report, profiles = obs_gate(scale="tiny")
    assert failures == [], failures
    assert set(report["benchmarks"]) == {"pingpong", "fig3_m2m", "fig10_window"}
    for name, entry in report["benchmarks"].items():
        # checksum recorded and identical off/on (else the gate would
        # have failed above)
        assert entry["checksum"]
        assert entry["coverage_top10"] >= 0.80
        assert entry["profiled_events"] > 0
        # No verdict reads a host clock: one run per side, no ratios.
        assert not {"reps", "ratios", "best_ratio"} & set(entry)
    assert not {"budget", "median_overhead"} & set(report)
    assert profiles["pingpong"].total_count > 0


@pytest.mark.slow
def test_obs_gate_fails_on_a_profiler_that_schedules_an_event(monkeypatch):
    """The seeded defect the gate exists for: an observer that touches
    the event queue.  Profiled != unprofiled must turn the gate red."""
    from repro.obs.profiler import EngineProfiler

    sample = EngineProfiler.sample

    def meddling_sample(self, event, callbacks, from_heap):
        self.env.timeout(1.0)
        return sample(self, event, callbacks, from_heap)

    monkeypatch.setattr(EngineProfiler, "sample", meddling_sample)
    failures, _, _, _ = obs_gate(scale="tiny")
    assert any("profiled run" in f and "!= unprofiled" in f for f in failures)


def test_budget_option_is_gone():
    with pytest.raises(SystemExit) as exc:
        harness_main(["obs", "--budget", "0.1"])
    assert exc.value.code == 2


@pytest.mark.slow
def test_obs_gate_cli_tiny(tmp_path, capsys):
    rc = harness_main([
        "obs", "--scale", "tiny",
        "--baseline", str(tmp_path / "hotspots.json"),
        "--write-baseline",
        "--profile-dir", str(tmp_path / "profiles"),
        "--json-out", str(tmp_path / "report.json"),
    ])
    assert rc == 0
    assert (tmp_path / "hotspots.json").exists()
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "profiles" / "hotspots_pingpong.json").exists()
    out = capsys.readouterr().out
    assert "obs: PASS" in out


def test_baseline_summary_shape():
    summary = baseline_summary({"pingpong": fake_profile("pingpong")}, "t")
    entry = summary["benchmarks"]["pingpong"]
    assert entry["total_events"] == 100
    assert len(entry["top"]) <= BASELINE_TOP
    assert entry["top"][0]["owner"] == "Process._resume:pe*"
    assert entry["top"][0]["share"] == pytest.approx(0.9)


def test_check_baseline_gates_top_site_identity():
    baseline = baseline_summary({"pingpong": fake_profile("pingpong")})
    failures, notes = [], []
    _check_baseline(
        baseline, {"pingpong": fake_profile("now")}, failures, notes
    )
    assert failures == []
    assert any("top site" in n for n in notes)

    # The dominant site vanishing is a hard failure...
    failures, notes = [], []
    _check_baseline(
        baseline,
        {"pingpong": fake_profile("now", owner="Somewhere.else")},
        failures,
        notes,
    )
    assert len(failures) == 1
    assert "absent" in failures[0]

    # ...but a benchmark missing from the run is only a note.
    failures, notes = [], []
    _check_baseline(baseline, {}, failures, notes)
    assert failures == []
    assert any("not in this run" in n for n in notes)


def _stub_runners(monkeypatch, checksum):
    """One instant 'benchmark' so the committed-record clause is testable
    without running the engine."""
    from repro.harness import obsgate

    monkeypatch.setattr(
        obsgate, "gate_runners",
        lambda scale: {"pingpong": lambda: {"checksum": checksum, "events": 7}},
    )


def test_committed_record_clause_survives_a_stray_tiny_record(tmp_path, monkeypatch):
    """A tiny-scale BENCH record newer than the committed full-scale one
    used to switch the 'checksum == committed record' clause off, silently."""
    import json

    committed = {"id": "BENCH_0011", "scale": "full",
                 "benchmarks": {"pingpong": {"checksum": "c0ffee"}}}
    (tmp_path / "BENCH_0011.json").write_text(json.dumps(committed))
    (tmp_path / "BENCH_0012.json").write_text(
        json.dumps({"id": "BENCH_0012", "scale": "tiny", "benchmarks": {}}))

    _stub_runners(monkeypatch, "c0ffee")
    _, notes, report, _ = obs_gate(scale="full", bench_root=tmp_path)
    assert report["bench_record"] == "BENCH_0011"
    assert "pingpong: checksum matches BENCH_0011" in notes

    _stub_runners(monkeypatch, "decade")
    failures, _, _, _ = obs_gate(scale="full", bench_root=tmp_path)
    assert any("!= committed BENCH_0011" in f for f in failures)


def test_missing_full_scale_record_is_a_note_not_silence(tmp_path, monkeypatch):
    _stub_runners(monkeypatch, "c0ffee")
    _, notes, report, _ = obs_gate(scale="full", bench_root=tmp_path)
    assert report["bench_record"] == ""
    assert any("no full-scale BENCH_*.json" in n for n in notes)
