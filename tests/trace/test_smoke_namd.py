"""Smoke test: a traced mini-NAMD run exercises the whole subsystem.

Satellite requirement: a traced ``namd_mini``-style run must produce
non-empty utilization for all activity categories the application emits
(integrate / nonbonded / pme on the workers, comm+idle on the comm
threads), plus valid exported artifacts.
"""

import json

import pytest

pytestmark = pytest.mark.trace

from repro.harness import export_trace_artifacts, run_traced_namd
from repro.trace import USEFUL_CATEGORIES, format_utilization_table, utilization_summary


@pytest.fixture(scope="module")
def traced_run():
    return run_traced_namd(
        "smoke", n_atoms=500, nnodes=2, workers=2, comm_threads=1,
        pme_every=2, n_steps=3,
    )


def test_all_activity_categories_have_time(traced_run):
    tr = traced_run.tracer
    cats = set(tr.categories())
    # The mini-NAMD app emits the paper's full Fig. 3 legend.
    assert {"integrate", "nonbonded", "pme", "comm", "idle"} <= cats
    for cat in cats:
        total = sum(s.duration for s in tr.spans if s.category == cat)
        assert total > 0, f"category {cat!r} recorded no time"


def test_utilization_nonempty_everywhere(traced_run):
    tr = traced_run.tracer
    busy, useful = tr.utilization()
    assert 0 < useful <= busy <= 1
    for track in tr.tracks():
        tbusy, _ = tr.utilization(track=track)
        assert tbusy > 0, f"track {track} recorded no busy time"


def test_worker_and_commthread_tracks_present(traced_run):
    from repro.converse.machine import ConverseRuntime

    tr = traced_run.tracer
    tracks = tr.tracks()
    workers = [t for t in tracks if t < ConverseRuntime.COMMTHREAD_TRACK_BASE]
    cts = [t for t in tracks if t >= ConverseRuntime.COMMTHREAD_TRACK_BASE]
    assert len(workers) == 4  # 2 nodes x 2 workers
    assert len(cts) == 2  # 2 nodes x 1 comm thread
    cats = {row["track"]: row["categories"] for row in utilization_summary(tr)}
    for ct in cts:
        assert tr.label_of(ct).startswith("commthread")
        # Comm threads do comm + idle, never application work.
        assert set(cats[ct]) <= {"comm", "idle"}
        assert not (set(cats[ct]) & USEFUL_CATEGORIES)


def test_cross_layer_counters_populated(traced_run):
    c = traced_run.counters
    for name in (
        "engine.events",
        "sched.polls",
        "converse.msgs_sent",
        "converse.bytes_sent",
        "converse.msgs_executed",
        "pami.advances",
        "mu.packets_injected",
        "commthread.items",
        "l2.atomic_ops",
        "charm.entries",
    ):
        assert c.get(name, 0) > 0, f"counter {name!r} never incremented"


def test_artifact_export_roundtrip(traced_run, tmp_path):
    paths = export_trace_artifacts(traced_run, tmp_path, "smoke", nnodes=2)
    with open(paths["chrome"]) as fh:
        chrome = json.load(fh)
    xs = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == len(traced_run.tracer.spans)
    assert chrome["otherData"]["label"] == "smoke"
    with open(paths["manifest"]) as fh:
        man = json.load(fh)
    assert man["label"] == "smoke"
    assert man["time_unit"] == "us"
    assert man["counters"]["converse.msgs_sent"] == traced_run.counters[
        "converse.msgs_sent"
    ]
    assert man["meta"]["nnodes"] == 2
    # Every track appears in the manifest's utilization rows.
    labels = {r["label"] for r in man["utilization"]}
    assert "pe0" in labels and "all" in labels


def test_timeline_and_table_render(traced_run):
    assert "legend:" in traced_run.timeline_ascii
    table = format_utilization_table(traced_run.tracer)
    assert "busy%" in table and "pe0" in table
