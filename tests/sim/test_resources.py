"""Unit tests for the mutex and its contention statistics."""

import pytest

from repro.sim import Environment, Mutex, SimulationError


def test_mutex_mutual_exclusion_and_fifo():
    env = Environment()
    m = Mutex(env)
    log = []

    def worker(tag, hold):
        yield from m.acquire()
        log.append(("in", tag, env.now))
        yield env.timeout(hold)
        log.append(("out", tag, env.now))
        m.release()

    env.process(worker("a", 10))
    env.process(worker("b", 5))
    env.process(worker("c", 5))
    env.run()
    # Strict FIFO: a then b then c, no overlap.
    assert [e[1] for e in log] == ["a", "a", "b", "b", "c", "c"]
    assert log[2][2] == 10 and log[4][2] == 15


def test_mutex_contention_stats():
    env = Environment()
    m = Mutex(env)

    def holder():
        yield from m.acquire()
        yield env.timeout(20)
        m.release()

    def waiter():
        yield env.timeout(1)
        yield from m.acquire()
        m.release()

    env.process(holder())
    env.process(waiter())
    env.run()
    assert m.stats.acquisitions == 2
    assert m.stats.contended == 1
    assert m.stats.total_wait == pytest.approx(19)
    assert m.stats.max_wait == pytest.approx(19)


def test_mutex_try_acquire():
    env = Environment()
    m = Mutex(env)
    assert m.try_acquire()
    assert not m.try_acquire()
    m.release()
    assert m.try_acquire()


def test_mutex_release_unlocked_is_error():
    env = Environment()
    m = Mutex(env)
    with pytest.raises(SimulationError):
        m.release()
