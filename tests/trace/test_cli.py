"""The ``python -m repro.trace`` analysis CLI, end to end.

One small traced run per artifact kind (a Fig. 3-style m2m PME run and
a Fig. 9-style comm-thread run) is exported once per module; every
subcommand is then exercised in-process through ``__main__.main`` on
the resulting artifacts — the same entry points the documented CLI
sessions in docs/TRACING.md use.
"""

import json

import pytest

pytestmark = [pytest.mark.trace, pytest.mark.slow]

from repro.trace.__main__ import main


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    from repro.harness.timelines import export_trace_artifacts, run_traced_namd

    outdir = tmp_path_factory.mktemp("cli-artifacts")
    fig3 = run_traced_namd(
        "fig3-style m2m PME", n_atoms=256, nnodes=2, workers=2,
        comm_threads=1, pme_every=1, use_m2m_pme=True, n_steps=3, seed=5,
    )
    fig9 = run_traced_namd(
        "fig9-style comm threads", n_atoms=256, nnodes=2, workers=4,
        comm_threads=2, pme_every=2, n_steps=3, seed=5,
    )
    p3 = export_trace_artifacts(fig3, outdir, "fig3")
    p9 = export_trace_artifacts(fig9, outdir, "fig9")
    return {"fig3": p3, "fig9": p9}


def test_analyze_trace_reports_fig9_commthread_breakdown(artifacts, capsys):
    assert main(["analyze", artifacts["fig9"]["chrome"]]) == 0
    out = capsys.readouterr().out
    # The Fig. 9 point: per-track utilization including the comm threads.
    assert "-- utilization --" in out
    assert "commthread-n0t4" in out and "commthread-n1t4" in out
    assert "busy" in out and "useful" in out
    # HPM groups surface per node.
    assert "-- simulated HPM counters --" in out
    assert "mu.descriptors" in out and "commthread.interrupts" in out


def test_analyze_names_fig3_critical_path(artifacts, capsys):
    assert main(["critpath", artifacts["fig3"]["chrome"]]) == 0
    out = capsys.readouterr().out
    # The Fig. 3 claim: the CLI names which executions bound the run —
    # PME handler segments on named PEs, connected by stamped messages.
    assert "critical path: length=" in out
    assert "exec" in out
    assert "pme" in out  # PME executions dominate a PME-every-step run
    assert "pe0" in out
    assert "(0," in out  # msg ids are named


def test_analyze_json_format_is_machine_readable(artifacts, capsys):
    assert main(["analyze", artifacts["fig9"]["chrome"], "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "trace"
    assert {"utilization", "imbalance", "time_profile", "critical_path",
            "messages", "hpm"} <= set(doc)
    assert doc["critical_path"]["summary"]["nsegments"] > 0
    assert doc["messages"]["latency"]["count"] > 0


def test_analyze_manifest_artifact(artifacts, capsys):
    assert main(["analyze", artifacts["fig3"]["manifest"]]) == 0
    out = capsys.readouterr().out
    assert "(manifest" in out
    assert "critical path: length=" in out
    assert "messages:" in out


def test_timeprofile_needs_full_trace(artifacts, capsys):
    assert main(["timeprofile", artifacts["fig3"]["manifest"]]) == 2
    assert main(["timeprofile", artifacts["fig3"]["chrome"], "--bins", "6"]) == 0
    out = capsys.readouterr().out
    assert "interval" in out and "pme" in out


def test_utilization_subcommand(artifacts, capsys):
    assert main(["utilization", artifacts["fig9"]["chrome"]]) == 0
    out = capsys.readouterr().out
    assert "busy-fraction histogram" in out
    assert "load imbalance" in out


def test_messages_subcommand(artifacts, capsys):
    assert main(["messages", artifacts["fig3"]["chrome"]]) == 0
    out = capsys.readouterr().out
    assert "stamped" in out and "latency" in out and "histogram" in out


def test_idle_subcommand_blames_messages(artifacts, capsys):
    assert main(["idle", artifacts["fig3"]["chrome"], "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "idle gaps" in out
    assert "msg (" in out  # at least one gap blamed on an arrival


def test_hpm_subcommand(artifacts, capsys):
    assert main(["hpm", artifacts["fig9"]["chrome"]]) == 0
    out = capsys.readouterr().out
    assert "node0" in out and "node1" in out
    assert "mu.descriptors" in out


def test_diff_identical_passes_perturbed_fails(artifacts, tmp_path, capsys):
    man = artifacts["fig3"]["manifest"]
    assert main(["diff", man, man]) == 0
    capsys.readouterr()
    with open(man) as fh:
        doc = json.load(fh)
    # Perturb one HPM-backed counter: the gate must fail — this is the
    # regression the trace-diff gate exists to catch.
    doc["counters"]["hpm.mu.descriptors"] = (
        doc["counters"]["hpm.mu.descriptors"] * 2 + 100
    )
    bad = tmp_path / "perturbed.manifest.json"
    bad.write_text(json.dumps(doc))
    assert main(["diff", man, str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL /counters/hpm.mu.descriptors" in out
