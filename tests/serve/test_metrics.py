"""Serve-layer metrics: registry wiring, labels, and the percentile
equality contract with servebench's reported p50/p99."""

import asyncio

import pytest

from repro.harness.servebench import run_serve_load
from repro.obs.metrics import percentile
from repro.serve import CANCELLED, DONE, JobService, JobSpec
from tests.serve.test_service import make_build, stall_build


def run_jobs(njobs=6, workers=2, priorities=None):
    async def go():
        svc = JobService(workers=workers)
        svc.start()
        for i in range(njobs):
            prio = priorities[i % len(priorities)] if priorities else 1
            svc.submit(
                JobSpec(name=f"j{i}", build=make_build(i, ticks=10),
                        priority=prio)
            )
        await svc.join()
        snap = svc.metrics_snapshot()
        await svc.close()
        return svc, snap

    return asyncio.run(go())


def series(snap, name):
    return snap[name]["series"]


def test_job_lifecycle_counters():
    svc, snap = run_jobs(njobs=5)
    assert series(snap, "serve.jobs.submitted")[0]["value"] == 5.0
    done = [
        s for s in series(snap, "serve.jobs.completed")
        if s["labels"]["state"] == DONE
    ]
    assert done and done[0]["value"] == 5.0
    # All jobs drained: queue depth gauge reads zero.
    assert series(snap, "serve.queue.depth")[0]["value"] == 0.0


def test_latency_histogram_counts_every_job():
    svc, snap = run_jobs(njobs=4)
    lat = series(snap, "serve.latency_s")[0]
    assert lat["count"] == 4
    assert lat["sum"] > 0.0
    assert lat["p50"] <= lat["p99"]


def test_queue_wait_is_labeled_by_priority():
    svc, snap = run_jobs(njobs=6, workers=1, priorities=[0, 2])
    waits = series(snap, "serve.queue.wait_s")
    prios = {s["labels"]["priority"] for s in waits}
    assert prios == {"0", "2"}
    assert sum(s["count"] for s in waits) == 6


def test_slice_metrics_observe_each_advance():
    svc, snap = run_jobs(njobs=2)
    slices = series(snap, "serve.slice.duration_s")[0]
    events = series(snap, "serve.slice.events")[0]
    # Every advance() call contributes one sample to both histograms.
    assert slices["count"] == events["count"] > 0


def test_cancel_counter_increments():
    async def go():
        svc = JobService(workers=1)
        svc.start()
        blocker = svc.submit(JobSpec(name="blocker", build=make_build(0)))
        victim = svc.submit(JobSpec(name="victim", build=make_build(1)))
        assert await svc.cancel(victim.id)
        await svc.join()
        snap = svc.metrics_snapshot()
        await svc.close()
        return victim, snap

    victim, snap = asyncio.run(go())
    assert victim.state == CANCELLED
    assert series(snap, "serve.cancel.requests")[0]["value"] == 1.0
    cancelled = [
        s for s in series(snap, "serve.jobs.completed")
        if s["labels"]["state"] == CANCELLED
    ]
    assert cancelled and cancelled[0]["value"] == 1.0


def test_worker_busy_and_idle_counters_exist():
    svc, snap = run_jobs(njobs=3, workers=2)
    busy = series(snap, "serve.worker.busy_s")
    assert {s["labels"]["worker"] for s in busy} == {"0", "1"}
    assert all(s["value"] >= 0.0 for s in busy)


def test_snapshot_refreshes_cache_gauges():
    svc, snap = run_jobs(njobs=3)
    assert "serve.cache.hit_rate" in snap
    assert "serve.cache.entries" in snap


@pytest.mark.slow
def test_servebench_percentiles_equal_histogram_percentiles():
    """The reported p50/p99 must BE the metrics histogram's percentiles.

    servebench routes its latency summary through serve.latency_s; a
    drift between the report numbers and the metrics surface would mean
    two competing definitions of serve latency.
    """
    report = run_serve_load(scale="tiny")
    lat = report["serve_metrics"]["serve.latency_s"]["series"][0]
    assert report["latency_p50_s"] == round(lat["p50"], 4)
    assert report["latency_p99_s"] == round(lat["p99"], 4)
    # And the histogram's own samples reproduce them via the shared
    # nearest-rank percentile (one definition, three surfaces).
    # count equals the number of gated jobs.
    assert lat["count"] == report["njobs"]


def test_percentile_definition_is_shared():
    vals = [0.4, 0.1, 0.9, 0.2]
    assert percentile(vals, 0.5) == sorted(vals)[2]
