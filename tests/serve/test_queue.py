"""Unit coverage for the service's priority queue and calibration cache."""

import asyncio

import pytest

from repro.serve import CalibrationCache, Job, JobQueue, JobSpec
from repro.serve.job import CANCELLED


def _job(seq, priority=0, name=None):
    spec = JobSpec(name=name or f"j{seq}", build=lambda s: None, priority=priority)
    return Job(f"{spec.name}-{seq:04d}", seq, spec, 0.0)


def test_pop_orders_by_priority_then_submission():
    async def run():
        q = JobQueue()
        for seq, prio in enumerate([2, 0, 1, 0, 2]):
            q.push(_job(seq, prio))
        order = []
        while len(q):
            order.append((await q.pop()).seq)
        return order

    # priority 0 first (FIFO within the band), then 1, then 2.
    assert asyncio.run(run()) == [1, 3, 2, 0, 4]


def test_pop_skips_lazily_cancelled_jobs():
    async def run():
        q = JobQueue()
        jobs = [_job(seq) for seq in range(4)]
        for j in jobs:
            q.push(j)
        jobs[0].finalize(CANCELLED, 0.0)  # control plane cancels in place
        jobs[2].finalize(CANCELLED, 0.0)
        q.close()
        order = []
        while (j := await q.pop()) is not None:
            order.append(j.seq)
        return order

    assert asyncio.run(run()) == [1, 3]


def test_pop_blocks_until_push_then_drains_on_close():
    async def run():
        q = JobQueue()
        got = []

        async def consumer():
            while (j := await q.pop()) is not None:
                got.append(j.seq)

        task = asyncio.ensure_future(consumer())
        await asyncio.sleep(0)
        q.push(_job(0))
        q.push(_job(1))
        await asyncio.sleep(0)
        q.close()
        await task
        return got

    assert asyncio.run(run()) == [0, 1]


def test_closed_queue_rejects_push():
    q = JobQueue()
    q.close()
    with pytest.raises(RuntimeError):
        q.push(_job(0))


def test_pending_lists_runnable_jobs_in_execution_order():
    q = JobQueue()
    jobs = [_job(seq, prio) for seq, prio in enumerate([1, 0, 1])]
    for j in jobs:
        q.push(j)
    jobs[2].finalize(CANCELLED, 0.0)
    assert [j.seq for j in q.pending()] == [1, 0]


# -- calibration cache -----------------------------------------------------

def test_cache_memoizes_per_argument_set():
    cache = CalibrationCache()
    calls = []

    def curve(nodes, m2m=False):
        calls.append((nodes, m2m))
        return nodes * (2.0 if m2m else 1.0)

    assert cache.call(curve, 128) == 128.0
    assert cache.call(curve, 128) == 128.0  # hit
    assert cache.call(curve, 128, m2m=True) == 256.0  # distinct key
    assert cache.call(curve, 256) == 256.0
    assert calls == [(128, False), (128, True), (256, False)]
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 3
    assert stats["hit_rate"] == pytest.approx(0.25)


def test_cache_hit_returns_identical_object():
    cache = CalibrationCache()
    obj = {"curve": [1.0, 2.0]}
    got1 = cache.call(lambda: obj)
    got2 = cache.call(lambda: obj)
    assert got1 is got2 is obj


def test_cache_eviction_keeps_working_past_capacity():
    cache = CalibrationCache(max_entries=2)
    seen = []

    def f(x):
        seen.append(x)
        return x

    for x in (1, 2, 3, 1):  # 1 evicted by 3, so the last call re-misses
        cache.call(f, x)
    assert seen == [1, 2, 3, 1]
    assert cache.stats()["entries"] == 2
