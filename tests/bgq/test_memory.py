"""Tests for the GNU arena allocator model (paper §III-B / Fig. 6)."""

import pytest

from repro.bgq import BGQMachine, BGQParams
from repro.bgq.memory import Buffer
from repro.sim import Environment


def one_node(**kw):
    env = Environment()
    m = BGQMachine(env, 1, params=BGQParams(**kw))
    return env, m.node(0)


def test_malloc_free_roundtrip():
    env, node = one_node()
    alloc = node.arena_allocator
    out = []

    def worker():
        buf = yield from alloc.malloc(node.thread(0), 1024)
        out.append(buf)
        yield from alloc.free(node.thread(0), buf)

    env.process(worker())
    env.run()
    assert out[0].size == 1024
    assert alloc.mallocs == 1 and alloc.frees == 1
    assert not any(lock.locked for lock in alloc.locks)


def test_home_arena_assignment():
    env, node = one_node()
    alloc = node.arena_allocator
    assert alloc.home_arena(0) == 0
    assert alloc.home_arena(8) == 0
    assert alloc.home_arena(9) == 1


def test_free_requires_gnu_buffer():
    env, node = one_node()
    alloc = node.arena_allocator

    def worker():
        yield from alloc.free(node.thread(0), Buffer(size=8, arena=0, origin="pool"))

    env.process(worker())
    with pytest.raises(ValueError):
        env.run()


def test_cross_thread_frees_contend_on_arena():
    """Many threads freeing to one arena serialize on its mutex."""
    env, node = one_node()
    alloc = node.arena_allocator
    buffers = []

    def allocator_phase():
        # Thread 0 allocates everything from its home arena (arena 0).
        for _ in range(32):
            buf = yield from alloc.malloc(node.thread(0), 256)
            buffers.append(buf)

    env.process(allocator_phase())
    env.run()
    assert all(b.arena == 0 for b in buffers)

    def freer(tid, buf):
        yield from alloc.free(node.thread(tid), buf)

    for i, buf in enumerate(buffers):
        env.process(freer(i % node.n_threads, buf))
    env.run()
    assert alloc.locks[0].stats.contended > 10
    assert alloc.total_contention_wait() > 0


def test_malloc_falls_over_to_free_arena():
    """If the home arena is locked, malloc probes the next one."""
    env, node = one_node()
    alloc = node.arena_allocator
    got = []

    def hog():
        # Hold arena 0's lock for a long time.
        yield from alloc.locks[0].acquire()
        yield env.timeout(1e6)
        alloc.locks[0].release()

    def worker():
        yield env.timeout(10)
        buf = yield from alloc.malloc(node.thread(0), 64)
        got.append((buf.arena, env.now))

    env.process(hog())
    env.process(worker())
    env.run()
    arena, t = got[0]
    assert arena == 1  # fell over, did not wait a million cycles
    assert t < 1e5


def test_all_arenas_locked_blocks_on_home():
    env, node = one_node()
    alloc = node.arena_allocator
    got = []

    def hog(i, hold):
        yield from alloc.locks[i].acquire()
        yield env.timeout(hold)
        alloc.locks[i].release()

    for i in range(alloc.n_arenas):
        env.process(hog(i, 50_000 if i == 0 else 200_000))

    def worker():
        yield env.timeout(10)
        buf = yield from alloc.malloc(node.thread(0), 64)
        got.append((buf.arena, env.now))

    env.process(worker())
    env.run()
    arena, t = got[0]
    assert arena == 0  # waited for home arena
    assert t >= 50_000  # blocked until the home hog released


def test_arena_count_validates():
    env = Environment()
    from repro.bgq.memory import ArenaAllocator

    with pytest.raises(ValueError):
        ArenaAllocator(env, n_arenas=0)
