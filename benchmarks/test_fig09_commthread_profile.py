"""Figure 9: ApoA1 time profile with and without communication threads.

Paper: with communication threads the CPU utilization profile shows
more timestep peaks in the same window — messaging overhead moves off
the worker threads and overlaps with compute.  This regenerates the
profile from a DES mini-NAMD run and archives the trace artifacts as
``output/fig09_{without,with}_ct.{trace,manifest}.json`` (the
comm-thread runs carry dedicated ``commthread-*`` tracks, so the
Perfetto view shows exactly the offload the paper describes).
"""

import pathlib

from repro.harness import export_trace_artifacts, fig9_commthread_profile

_OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def test_fig9_commthread_profile(benchmark, report):
    data = benchmark.pedantic(
        lambda: fig9_commthread_profile(n_atoms=1372, nnodes=2, n_steps=3),
        rounds=1,
        iterations=1,
    )
    wo, wi = data["without"], data["with"]
    export_trace_artifacts(wo, _OUTPUT_DIR, "fig09_without_ct")
    export_trace_artifacts(wi, _OUTPUT_DIR, "fig09_with_ct")
    lines = ["Fig. 9: mini-NAMD utilization, DES (2 nodes)"]
    for r in (wo, wi):
        lines.append(
            f"  {r.label:>18}: {r.us_per_step:8.1f} us/step,"
            f" busy={r.busy_fraction * 100:.0f}%"
            f" useful={r.useful_fraction * 100:.0f}%"
            f" (msgs={r.counters.get('converse.msgs_sent', 0):.0f},"
            f" wakeups={r.counters.get('commthread.wakeups', 0):.0f})"
        )
    lines.append(
        "  trace artifacts: output/fig09_without_ct.trace.json,"
        " output/fig09_with_ct.trace.json"
    )
    report("\n".join(lines))
    # Communication threads speed up the step (more peaks per window).
    assert wi.us_per_step < wo.us_per_step
    # Both profiles show alternating compute and idle phases.
    for r in (wo, wi):
        prof = r.profile
        track_time = prof["bin_width"] * len(r.tracer.tracks())
        assert max(b["times"].get("idle", 0.0) for b in prof["bins"]) > 0.05 * track_time
        assert 0.05 < r.busy_fraction <= 1.0
        assert r.useful_fraction <= r.busy_fraction
    # Only the comm-thread run exercises the comm-thread counters.
    assert wi.counters.get("commthread.wakeups", 0) > 0
    assert "commthread.wakeups" not in wo.counters
