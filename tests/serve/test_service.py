"""JobService behaviour: ordering, cancellation, streaming, determinism.

The determinism matrix is the heart of the tentpole's contract: the
same jobs served under shifting worker interleavings (workers x
slice_events) must checksum bit-identically to solo runs every time.
"""

import asyncio
import gc

import pytest

from repro.serve import (
    CANCELLED,
    DONE,
    FAILED,
    RUNNING,
    EnvTask,
    Job,
    JobError,
    JobService,
    JobSpec,
    JobStallError,
    ModelTask,
    ShardedTask,
)
from repro.sim import Environment
from repro.sim.shard import ShardEnvironment, ShardStallError


def make_build(seed, ticks=40, record=None):
    """Deterministic seed-dependent workload: dt and a result value
    derive from the seed, so distinct seeds yield distinct checksums."""

    def build(spec):
        if record is not None:
            record.append(spec.name)
        env = Environment()
        done = env.event()
        dt = 1.0 + (seed % 5) * 0.25

        def proc():
            acc = seed
            for i in range(ticks):
                acc = (acc * 1103515245 + i) & 0xFFFFFFFF
                yield env.timeout(dt)
            done.succeed(acc)

        env.process(proc())
        return EnvTask(
            env, done,
            result_fn=lambda: {"acc": repr(done.value), "seed": seed},
            label=spec.name,
        )

    return build


def solo_checksum(seed, ticks=40):
    spec = JobSpec(name="solo", build=make_build(seed, ticks))
    task = spec.build(spec)
    task.start()
    task.env.run(until=task.done)
    task.stop()
    return task.checksum()


def stall_build(spec):
    env = Environment()
    done = env.event()  # never succeeds; the queue drains first
    env.process((env.timeout(1.0) for _ in range(1)))
    return EnvTask(env, done, label=spec.name)


class _IdleFabric:
    """The coordinator's fabric protocol with nothing ever in flight."""

    window = 2.0

    def flush(self):
        return 0

    def pending(self):
        return 0


def sharded_stall_build(spec):
    shards = [ShardEnvironment(0), ShardEnvironment(1)]
    done = shards[0].event()  # never succeeds; both shards drain first
    shards[0].timeout(3.0)
    shards[1].timeout(5.0)
    return ShardedTask(shards, done, fabric=_IdleFabric(),
                       label=spec.name)


def test_priority_bands_run_in_order_fifo_within_band():
    record = []

    async def run():
        svc = JobService(workers=1)
        svc.start()
        for name, prio in [("a", 2), ("b", 0), ("c", 1), ("d", 0)]:
            svc.submit(JobSpec(name=name, build=make_build(0, record=record),
                               priority=prio))
        await svc.join()
        await svc.close()

    asyncio.run(run())
    assert record == ["b", "d", "c", "a"]


def test_cancel_queued_job_never_builds():
    record = []

    async def run():
        svc = JobService(workers=1)
        svc.start()
        blocker = svc.submit(JobSpec(name="blocker", build=make_build(0, record=record)))
        victim = svc.submit(JobSpec(name="victim", build=make_build(1, record=record)))
        assert await svc.cancel(victim.id)
        await svc.join()
        await svc.close()
        return blocker, victim

    blocker, victim = asyncio.run(run())
    assert blocker.state == DONE
    assert victim.state == CANCELLED
    assert victim.error == "cancelled while queued"
    assert record == ["blocker"]  # the victim's build never ran
    assert victim.checksum is None


def test_cancel_running_job_stops_at_slice_boundary():
    async def run():
        svc = JobService(workers=2)
        svc.start()
        job = svc.submit(
            JobSpec(name="long", build=make_build(0, ticks=200_000), slice_events=32)
        )
        while job.state != RUNNING:
            await asyncio.sleep(0)
        assert await svc.cancel(job.id)
        await job.wait()
        # Cancelling again (the second teardown path) is a clean no-op.
        assert not await svc.cancel(job.id)
        await svc.close()
        return job

    job = asyncio.run(run())
    assert job.state == CANCELLED
    assert job.error == "cancelled while running"
    assert job.result is None and job.checksum is None


def test_stalled_job_fails_with_stall_diagnostic():
    async def run():
        svc = JobService(workers=1)
        svc.start()
        job = svc.submit(JobSpec(name="stall", build=stall_build))
        await svc.join()
        await svc.close()
        return job

    job = asyncio.run(run())
    assert job.state == FAILED
    assert "drained" in job.error


def test_stalled_sharded_job_error_carries_the_coordinator_report():
    """The job error names every shard's clock, next event and executed
    count plus the fabric backlog — not a one-line "stalled"."""
    async def run():
        svc = JobService(workers=1)
        svc.start()
        job = svc.submit(JobSpec(name="shard-stall", build=sharded_stall_build))
        await svc.join()
        await svc.close()
        return job

    job = asyncio.run(run())
    assert job.state == FAILED
    assert "JobStallError" in job.error and "shard-stall" in job.error
    # Two windows ran ([3, 5) and [5, 7)) before everything went idle.
    assert "shard 0: now=7.0 next_event=inf executed=1" in job.error
    assert "shard 1: now=7.0 next_event=inf executed=1" in job.error
    assert "fabric: pending=0" in job.error

    # Direct callers can still reach the coordinator's own exception.
    task = sharded_stall_build(JobSpec(name="direct", build=sharded_stall_build))
    assert not task.advance(1) and not task.advance(1)
    with pytest.raises(JobStallError) as info:
        task.advance(1)
    assert isinstance(info.value.__cause__, ShardStallError)
    assert task.windows_run == 2


def test_failed_build_marks_job_failed():
    def bad_build(spec):
        raise ValueError("no such workload")

    async def run():
        svc = JobService(workers=1)
        svc.start()
        job = svc.submit(JobSpec(name="bad", build=bad_build))
        await job.wait()
        await svc.close()
        return job

    job = asyncio.run(run())
    assert job.state == FAILED
    assert "no such workload" in job.error


def test_stream_replays_history_and_follows_live():
    async def run():
        svc = JobService(workers=1)
        svc.start()
        job = svc.submit(
            JobSpec(name="s", build=make_build(3, ticks=64), slice_events=8,
                    stream_every=1)
        )
        live = [c async for c in svc.stream(job.id)]
        late = [c async for c in svc.stream(job.id)]  # post-terminal replay
        await svc.close()
        return job, live, late

    job, live, late = asyncio.run(run())
    types = [c["type"] for c in live]
    assert types[0] == "queued"
    assert types[1] == "running"
    assert "progress" in types
    assert types[-1] == "done"
    assert live[-1]["checksum"] == job.checksum
    # Progress chunks carry monotone engine observables.
    events = [c["events"] for c in live if c["type"] == "progress"]
    assert events == sorted(events)
    assert late == live == job.chunks


def test_status_snapshots_track_lifecycle():
    async def run():
        svc = JobService(workers=1)
        svc.start()
        job = svc.submit(JobSpec(name="snap", build=make_build(2), priority=5))
        before = svc.status(job.id)
        await svc.join()
        after = svc.status(job.id)
        all_jobs = svc.jobs()
        await svc.close()
        return before, after, all_jobs

    before, after, all_jobs = asyncio.run(run())
    assert before["state"] == "queued" and before["priority"] == 5
    assert after["state"] == "done"
    assert after["checksum"] is not None
    assert after["latency_s"] >= 0.0
    assert [j["id"] for j in all_jobs] == [after["id"]]


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
@pytest.mark.parametrize("slice_events", [1, 7, 64])
def test_served_checksums_bit_identical_across_interleavings(workers, slice_events):
    """THE serve contract: every (workers, slice_events) point yields a
    different interleaving of the same six jobs; all must reproduce the
    solo checksums exactly."""
    seeds = [0, 1, 2, 3, 4, 5]
    solo = {seed: solo_checksum(seed) for seed in seeds}

    async def run():
        svc = JobService(workers=workers)
        svc.start()
        jobs = [
            svc.submit(
                JobSpec(
                    name=f"seed{seed}", build=make_build(seed),
                    priority=seed % 3, slice_events=slice_events,
                )
            )
            for seed in seeds
        ]
        await svc.join()
        await svc.close()
        return jobs

    jobs = asyncio.run(run())
    assert all(j.state == DONE for j in jobs)
    assert {seed: j.checksum for seed, j in zip(seeds, jobs)} == solo
    # Distinct seeds really are distinct workloads (the oracle isn't
    # vacuously comparing six identical runs).
    assert len(set(solo.values())) == len(seeds)


def test_model_jobs_share_the_service_calibration_cache():
    calls = []

    def curve(nodes):
        calls.append(nodes)
        return [float(nodes), float(nodes) / 2.0]

    async def run():
        svc = JobService(workers=2)
        svc.start()

        def model_build(spec):
            return ModelTask(curve, 128, cache=svc.cache)

        jobs = [svc.submit(JobSpec(name=f"m{i}", build=model_build)) for i in range(3)]
        await svc.join()
        await svc.close()
        return jobs, svc.cache.stats()

    jobs, stats = asyncio.run(run())
    assert calls == [128]  # one real evaluation, two cache hits
    assert stats["hits"] == 2 and stats["misses"] == 1
    checksums = {j.checksum for j in jobs}
    assert len(checksums) == 1  # hit-path results == miss-path results
    assert all(j.state == DONE for j in jobs)


def test_close_cancels_pending_and_running_work():
    async def run():
        svc = JobService(workers=1)
        svc.start()
        running = svc.submit(
            JobSpec(name="run", build=make_build(0, ticks=200_000), slice_events=16)
        )
        queued = svc.submit(JobSpec(name="wait", build=make_build(1)))
        while running.state != RUNNING:
            await asyncio.sleep(0)
        await svc.close()
        return running, queued

    running, queued = asyncio.run(run())
    assert running.state == CANCELLED
    assert queued.state == CANCELLED


def live_job_count():
    gc.collect()
    return sum(isinstance(o, Job) for o in gc.get_objects())


def test_dropped_finished_jobs_are_released():
    """A long-running service keeps only what its callers keep: 20
    batches whose caller drops each one leave at most two batches of
    Job objects alive."""
    batch_size = 4

    async def run():
        svc = JobService(workers=2)
        svc.start()
        counts = []
        for b in range(20):
            batch = [
                svc.submit(JobSpec(name=f"b{b}.{i}", build=make_build(i, ticks=5)))
                for i in range(batch_size)
            ]
            await svc.join(*(job.id for job in batch))
            del batch
            counts.append(live_job_count())
        await svc.close()
        return counts

    counts = asyncio.run(run())
    assert max(counts) <= 2 * batch_size, counts


def test_held_finished_job_replays_stream_and_reports_status():
    async def run():
        svc = JobService(workers=1)
        svc.start()
        kept = svc.submit(JobSpec(name="kept", build=make_build(3, ticks=16),
                                  slice_events=4, stream_every=1))
        svc.submit(JobSpec(name="dropped", build=make_build(4, ticks=16)))
        await svc.join()
        gc.collect()
        replay = [c async for c in svc.stream(kept.id)]
        status = svc.status(kept.id)
        listed = [j["id"] for j in svc.jobs()]
        await svc.close()
        return kept, replay, status, listed

    kept, replay, status, listed = asyncio.run(run())
    assert replay == kept.chunks
    assert [c["type"] for c in replay][:2] == ["queued", "running"]
    assert replay[-1] == {"type": "done", "job": kept.id,
                          "checksum": kept.checksum, "result": kept.result}
    assert status["state"] == DONE and status["checksum"] == kept.checksum
    assert listed == [kept.id]  # the dropped job is gone from jobs()


def test_released_job_id_raises_named_error():
    async def run():
        svc = JobService(workers=1)
        svc.start()
        job = svc.submit(JobSpec(name="gone", build=make_build(5, ticks=5)))
        job_id = job.id
        await svc.join(job_id)
        del job
        gc.collect()
        with pytest.raises(JobError) as info:
            svc.status(job_id)
        with pytest.raises(JobError):
            await svc.cancel(job_id)
        with pytest.raises(JobError):
            await svc.join(job_id)
        with pytest.raises(JobError):
            [c async for c in svc.stream(job_id)]
        await svc.close()
        return job_id, str(info.value)

    job_id, message = asyncio.run(run())
    assert repr(job_id) in message
    assert "finished and released" in message
    assert "kept only while a caller holds" in message


@pytest.mark.parametrize("field, value", [
    ("priority", "high"),
    ("priority", 1.5),
    ("slice_events", float("nan")),
    ("slice_events", 0),
    ("slice_events", 2.0),
    ("stream_every", -1),
    ("stream_every", None),
])
def test_malformed_spec_is_a_named_error_before_registration(field, value):
    async def run():
        svc = JobService(workers=1)
        queued = svc.submit(JobSpec(name="ok", build=make_build(3, ticks=5), priority=1))
        with pytest.raises(JobError) as info:
            svc.submit(JobSpec(name="bad", build=make_build(4), **{field: value}))
        listed = [s["name"] for s in svc.jobs()]
        svc.start()
        await svc.join()
        await svc.close()
        return queued, listed, str(info.value)

    queued, listed, message = asyncio.run(run())
    assert field in message and "'bad'" in message
    assert listed == ["ok"]  # the malformed job was never registered
    assert queued.state == DONE
