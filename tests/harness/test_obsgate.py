"""The bench gate's profiled pass: an observer changes nothing it observes.

Each serial benchmark runs once more inside a ``ProfileSession``; the
checks here were a gate of their own (``obs``) until the bench gate,
which already ran the unprofiled half, took them over.
"""

import json

import pytest

from repro.harness import benchgate
from repro.harness.__main__ import main as harness_main
from repro.harness.benchgate import PROFILE_TOP, check_profiles, profile_summary
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


def bench(root, *argv):
    return harness_main(["bench", "--root", str(root), "--scale", "tiny", *argv])


def _plain(checksum="c0ffee", events=100):
    return {"checksum": checksum, "events": events}


@pytest.mark.slow
def test_obs_gate_tiny_passes():
    """The profiled pass at tiny scale, below the CLI: every rerun
    matches its plain run and attribution stays concentrated."""
    benchmarks, profiled = benchgate.run_gate(scale="tiny")
    failures, notes = check_profiles(benchmarks, profiled, {})
    assert failures == [], failures
    assert set(profiled) == {"pingpong", "fig3_m2m", "fig10_window"}
    for name, (rerun, profile) in profiled.items():
        assert rerun["checksum"] == benchmarks[name]["checksum"]
        assert profile.coverage(10) >= 0.80
        assert profile.total_count == benchmarks[name]["events"] > 0
        # No verdict reads a host clock: one run per side, no ratios.
        assert not {"reps", "ratios", "best_ratio"} & set(benchmarks[name]["profile"])
    assert sum("profiled: top-10 coverage" in n for n in notes) == 3


@pytest.mark.slow
def test_obs_gate_cli_tiny(tmp_path, capsys):
    """The same checks through ``bench`` on the command line, which
    writes each profile and gates the next run against this record."""
    assert bench(tmp_path) == 0
    record = json.loads((tmp_path / "BENCH_0001.json").read_text())
    for name, entry in record["benchmarks"].items():
        profile = entry["profile"]
        # The profile counts every event the plain run executed.
        assert profile["total_events"] == entry["events"]
        assert profile["coverage_top10"] >= 0.80
        assert 0 < len(profile["top"]) <= PROFILE_TOP
        assert (tmp_path / "benchmarks/output" / f"hotspots_{name}.json").exists()
    # The next run gates its profiles against this record's top sites.
    assert bench(tmp_path) == 0
    out = capsys.readouterr().out
    assert out.count("top site") == 3 and "(BENCH_0001 " in out


@pytest.mark.slow
def test_bench_gate_fails_on_a_profiler_that_schedules_an_event(
    tmp_path, capsys, monkeypatch
):
    """The seeded defect: an observer that touches the event queue.
    Profiled != unprofiled must turn the bench gate red."""
    from repro.obs.profiler import EngineProfiler

    sample = EngineProfiler.sample

    def meddling_sample(self, event, callbacks, from_heap):
        self.env.timeout(1.0)
        return sample(self, event, callbacks, from_heap)

    monkeypatch.setattr(EngineProfiler, "sample", meddling_sample)
    assert bench(tmp_path) == 1
    err = capsys.readouterr().err
    assert "profiled run" in err and "!= unprofiled" in err


@pytest.mark.slow
def test_shattered_attribution_turns_bench_red(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(Profile, "coverage", lambda self, n=10: 0.5)
    assert bench(tmp_path) == 1
    assert "cover only 50.0%" in capsys.readouterr().err


@pytest.mark.slow
def test_vanished_prior_top_site_turns_bench_red(tmp_path, capsys):
    assert bench(tmp_path) == 0
    path = tmp_path / "BENCH_0001.json"
    record = json.loads(path.read_text())
    record["benchmarks"]["fig3_m2m"]["profile"]["top"][0]["owner"] = "Gone.site"
    path.write_text(json.dumps(record))
    assert bench(tmp_path) == 1
    err = capsys.readouterr().err
    assert "fig3_m2m: top dispatch site" in err and "Gone.site" in err
    assert "absent from this run's profile" in err


def test_budget_option_is_gone():
    for gate in ("obs", "iso"):
        with pytest.raises(SystemExit) as exc:
            harness_main([gate, "--budget", "0.1"])
        assert exc.value.code == 2


def test_baseline_summary_shape():
    summary = profile_summary(fake_profile("pingpong"))
    assert summary["total_events"] == 100
    assert summary["coverage_top10"] == 1.0
    assert len(summary["top"]) <= PROFILE_TOP
    assert summary["top"][0]["owner"] == "Process._resume:pe*"
    assert summary["top"][0]["share"] == pytest.approx(0.9)


def test_check_baseline_gates_top_site_identity():
    prior = {"id": "BENCH_0001", "benchmarks": {
        "pingpong": {"profile": profile_summary(fake_profile("then"))}}}

    failures, notes = check_profiles(
        {"pingpong": _plain()}, {"pingpong": (_plain(), fake_profile("now"))}, prior
    )
    assert failures == []
    assert any("top site" in n and "BENCH_0001" in n for n in notes)

    # The dominant site vanishing is a hard failure...
    failures, _ = check_profiles(
        {"pingpong": _plain()},
        {"pingpong": (_plain(), fake_profile("now", owner="Somewhere.else"))},
        prior,
    )
    assert len(failures) == 1 and "absent" in failures[0]

    # ...but a prior record without a profile is only a note.
    failures, notes = check_profiles(
        {"pingpong": _plain()},
        {"pingpong": (_plain(), fake_profile("now", owner="Somewhere.else"))},
        {"id": "BENCH_0016", "benchmarks": {"pingpong": _plain()}},
    )
    assert failures == []
    assert "pingpong: no profile in BENCH_0016 — top site not gated" in notes


def _stub_run_gate(monkeypatch, owner):
    """One instant 'benchmark' so the full-scale clauses are testable
    without running the engine."""
    monkeypatch.setattr(
        benchgate, "run_gate",
        lambda scale: (
            {"pingpong": {**_plain(), "sim_times": {}, "wall_s": 1.0,
                          "events_per_sec": 100.0,
                          "profile": profile_summary(fake_profile("now", owner))}},
            {"pingpong": (_plain(), fake_profile("now", owner=owner))},
        ),
    )


def test_committed_record_clause_survives_a_stray_tiny_record(tmp_path, monkeypatch):
    """A tiny-scale BENCH record newer than the committed full-scale one
    must not hide the committed record's top site."""
    committed = {"id": "BENCH_0011", "scale": "full", "benchmarks": {"pingpong": {
        **_plain(), "sim_times": {},
        "profile": profile_summary(fake_profile("then")),
    }}}
    (tmp_path / "BENCH_0011.json").write_text(json.dumps(committed))
    (tmp_path / "BENCH_0012.json").write_text(
        json.dumps({"id": "BENCH_0012", "scale": "tiny", "benchmarks": {}}))
    out = tmp_path / "out.json"
    argv = ["bench", "--root", str(tmp_path), "--json-out", str(out)]

    _stub_run_gate(monkeypatch, "Process._resume:pe*")
    assert harness_main(argv) == 0
    assert any("(BENCH_0011 90.0%)" in n for n in json.loads(out.read_text())["notes"])

    _stub_run_gate(monkeypatch, "Somewhere.else")
    assert harness_main(argv) == 1
    assert any("of BENCH_0011 absent" in f
               for f in json.loads(out.read_text())["failures"])


def test_missing_full_scale_record_is_a_note_not_silence(tmp_path, monkeypatch):
    _stub_run_gate(monkeypatch, "Process._resume:pe*")
    out = tmp_path / "out.json"
    assert harness_main(["bench", "--root", str(tmp_path), "--json-out", str(out)]) == 0
    assert any("no prior full-scale BENCH_*.json" in n
               for n in json.loads(out.read_text())["notes"])
