"""Tests for the trace harness (Figs. 3/9/10 machinery)."""

import pytest

from repro.harness.timelines import TraceResult, run_traced_namd


@pytest.fixture(scope="module")
def trace():
    return run_traced_namd(
        "probe", n_atoms=500, nnodes=2, workers=2, comm_threads=1,
        pme_every=2, n_steps=2,
    )


def test_trace_result_fields(trace):
    assert trace.n_steps == 2
    assert trace.total_us > 0
    assert trace.us_per_step == pytest.approx(trace.total_us / 2)
    assert 0 < trace.busy_fraction <= 1
    assert 0 < trace.useful_fraction <= trace.busy_fraction
    assert len(trace.step_times_us) == 2
    assert list(trace.step_times_us) == sorted(trace.step_times_us)


def test_trace_timeline_has_activity_glyphs(trace):
    art = trace.timeline_ascii
    assert "legend:" in art
    assert any(g in art for g in "RPG")


def test_trace_profile_bins_normalized(trace):
    prof = trace.profile
    assert len(prof["bins"]) == 40
    ntracks = len(trace.tracer.tracks())
    for b in prof["bins"]:
        assert all(t >= 0.0 for t in b["times"].values())
        # Stacked category time never exceeds the bin's track-time.
        assert sum(b["times"].values()) <= prof["bin_width"] * ntracks * (1 + 1e-9)
    # Every span is apportioned: the bins hold all recorded time.
    total = sum(s.duration for s in trace.tracer.spans)
    assert sum(sum(b["times"].values()) for b in prof["bins"]) == pytest.approx(total)


def test_m2m_trace_runs_and_is_not_slower_big(trace):
    m2m = run_traced_namd(
        "probe-m2m", n_atoms=500, nnodes=2, workers=2, comm_threads=1,
        pme_every=2, n_steps=2, use_m2m_pme=True,
    )
    # Same workload; m2m PME must not be dramatically slower.
    assert m2m.us_per_step < 1.5 * trace.us_per_step
