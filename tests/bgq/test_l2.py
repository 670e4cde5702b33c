"""Tests for the L2 atomic unit semantics (paper §II / Fig. 2)."""

import pytest

from repro.bgq import BOUNDED_INCREMENT_FAILED, L2AtomicUnit
from repro.bgq.params import BGQParams
from repro.sim import Environment


def run(gen_factory):
    env = Environment()
    l2 = L2AtomicUnit(env)
    results = []

    def proc():
        out = yield from gen_factory(env, l2)
        results.append(out)

    env.process(proc())
    env.run()
    return env, l2, results


def test_load_increment_returns_old_value():
    def body(env, l2):
        c = l2.allocate("c", bound=10)
        a = yield from l2.load_increment_bounded(c)
        b = yield from l2.load_increment_bounded(c)
        return (a, b, l2.peek(c))

    _, _, res = run(body)
    assert res == [(0, 1, 2)]


def test_atomic_latency_charged():
    """Each atomic op costs one L2 round trip, back to back."""

    def body(env, l2):
        c = l2.allocate("c", bound=1)
        yield from l2.load_increment_bounded(c)
        t1 = env.now
        yield from l2.store_add_bound(c, 1)
        return (t1, env.now)

    env, l2, res = run(body)
    lat = l2.params.l2_atomic_latency
    assert res == [(pytest.approx(lat), pytest.approx(2 * lat))]


def test_bounded_increment_fails_at_bound():
    def body(env, l2):
        c = l2.allocate("c", value=0, bound=2)
        r1 = yield from l2.load_increment_bounded(c)
        r2 = yield from l2.load_increment_bounded(c)
        r3 = yield from l2.load_increment_bounded(c)
        return (r1, r2, r3)

    _, _, res = run(body)
    assert res == [(0, 1, BOUNDED_INCREMENT_FAILED)]


def test_bound_advance_reenables_increment():
    """Consumer advancing the bound lets producers enqueue again (Fig. 2c)."""

    def body(env, l2):
        c = l2.allocate("c", value=0, bound=1)
        r1 = yield from l2.load_increment_bounded(c)
        r2 = yield from l2.load_increment_bounded(c)
        yield from l2.store_add_bound(c, 1)
        r3 = yield from l2.load_increment_bounded(c)
        return (r1, r2, r3)

    _, _, res = run(body)
    assert res == [(0, BOUNDED_INCREMENT_FAILED, 1)]


def test_bounded_increment_requires_bound_word():
    def body(env, l2):
        c = l2.allocate("c")
        yield from l2.load_increment_bounded(c)

    with pytest.raises(ValueError):
        run(body)


def test_store_ops():
    """store_add_bound moves the bound word only, and needs one."""

    def body(env, l2):
        c = l2.allocate("c", value=5, bound=6)
        yield from l2.store_add_bound(c, 3)
        return (l2.peek(c), c.bound)

    _, _, res = run(body)
    assert res == [(5, 9)]

    def unbounded(env, l2):
        yield from l2.store_add_bound(l2.allocate("c"), 1)

    with pytest.raises(ValueError):
        run(unbounded)


def test_duplicate_allocation_rejected():
    env = Environment()
    l2 = L2AtomicUnit(env)
    l2.allocate("x")
    with pytest.raises(ValueError):
        l2.allocate("x")


def test_concurrent_increments_never_lose_updates():
    """Many producers hammering one counter: every increment lands."""
    env = Environment()
    l2 = L2AtomicUnit(env)
    c = l2.allocate("shared", bound=150)
    seen = []

    def producer(n):
        for _ in range(n):
            old = yield from l2.load_increment_bounded(c)
            seen.append(old)

    for _ in range(8):
        env.process(producer(25))
    env.run()
    # The bound admits exactly 150 slots; the other 50 claims fail.
    assert l2.peek(c) == 150
    assert sorted(s for s in seen if s is not BOUNDED_INCREMENT_FAILED) == list(range(150))
    assert sum(s is BOUNDED_INCREMENT_FAILED for s in seen) == l2.bounded_failed == 50


def test_op_count_tracks_usage():
    def body(env, l2):
        c = l2.allocate("c", bound=10)
        yield from l2.load_increment_bounded(c)
        yield from l2.load_increment_bounded(c)
        yield from l2.store_add_bound(c, 1)
        return None

    _, l2, _ = run(body)
    assert l2.op_count == 3
    assert l2.op_counts == {"load_increment_bounded": 2, "store_add_bound": 1}
