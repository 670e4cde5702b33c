"""Tests for the lockless queue implementations (paper §III-A, Fig. 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgq import BGQMachine, BGQParams, arm_any
from repro.queues import L2AtomicQueue, MutexQueue
from repro.sim import Environment


def one_node():
    env = Environment()
    m = BGQMachine(env, 1)
    return env, m.node(0)


def drain_all(env, node, q, consumer_tid=0):
    """Consumer process that drains until told to stop; returns items."""
    items = []
    stop = {"flag": False}

    def consumer():
        thread = node.thread(consumer_tid)
        while True:
            item = yield from q.dequeue(thread)
            if item is not None:
                items.append(item)
            elif stop["flag"] and len(q) == 0:
                return
            else:
                yield env.timeout(50)  # poll interval

    proc = env.process(consumer())
    return items, stop, proc


@pytest.mark.parametrize("qcls", ["mutex", "l2"])
def test_single_producer_fifo_order_without_overflow(qcls):
    """FIFO holds as long as the overflow path never engages."""
    env, node = one_node()
    if qcls == "mutex":
        q = MutexQueue(env)
    else:
        q = L2AtomicQueue(env, node.l2, size=64)
    items, stop, proc = drain_all(env, node, q)

    def producer():
        thread = node.thread(4)
        for i in range(20):
            yield from q.enqueue(thread, i)
        stop["flag"] = True

    env.process(producer())
    env.run()
    assert items == list(range(20))
    assert getattr(q, "overflow_enqueues", 0) == 0


def test_overflow_path_may_reorder_by_design():
    """Once the queue fills, later messages can overtake ones parked in
    the overflow queue.  This is deliberate: Charm++ has no message
    ordering requirement (§III-A), which is what lets the consumer leave
    the overflow mutex off the fast path."""
    env, node = one_node()
    q = L2AtomicQueue(env, node.l2, size=2)
    items = []

    def flow():
        prod = node.thread(4)
        cons = node.thread(0)
        # Fill the L2 queue (0, 1) and park 2, 3 in overflow.
        for i in range(4):
            yield from q.enqueue(prod, i)
        assert q.overflow_enqueues == 2
        # Consume two: frees two L2 slots (bound advances).
        for _ in range(2):
            items.append((yield from q.dequeue(cons)))
        # New messages land in the L2 queue ahead of parked 2, 3.
        for i in (4, 5):
            yield from q.enqueue(prod, i)
        while len(items) < 6:
            item = yield from q.dequeue(cons)
            assert item is not None
            items.append(item)

    env.process(flow())
    env.run()
    assert sorted(items) == list(range(6))  # conserved...
    # ...but 4 and 5 overtook the overflow-parked 2 and 3.
    assert items == [0, 1, 4, 5, 2, 3]


@pytest.mark.parametrize("qcls", ["mutex", "l2"])
def test_many_producers_no_loss_no_dup(qcls):
    env, node = one_node()
    if qcls == "mutex":
        q = MutexQueue(env)
    else:
        q = L2AtomicQueue(env, node.l2, size=4)  # tiny: forces overflow
    items, stop, proc = drain_all(env, node, q)
    n_producers, per = 7, 15
    finished = []

    def producer(pid):
        thread = node.thread(pid + 1)
        for i in range(per):
            yield from q.enqueue(thread, (pid, i))
        finished.append(pid)
        if len(finished) == n_producers:
            stop["flag"] = True

    for pid in range(n_producers):
        env.process(producer(pid))
    env.run()
    # Conservation is the guarantee; ordering is not (see
    # test_overflow_path_may_reorder_by_design).
    assert sorted(items) == sorted((p, i) for p in range(n_producers) for i in range(per))


def test_l2_queue_overflow_used_when_full():
    env, node = one_node()
    q = L2AtomicQueue(env, node.l2, size=2)

    def producer():
        thread = node.thread(1)
        for i in range(5):
            yield from q.enqueue(thread, i)

    env.process(producer())
    env.run()
    assert q.overflow_enqueues == 3
    assert len(q.overflow) == 3
    assert len(q) == 5


def test_l2_queue_bound_readvance_after_dequeue():
    """Fig. 2(c): consuming re-enables a producer slot via the bound."""
    env, node = one_node()
    q = L2AtomicQueue(env, node.l2, size=2)
    log = []

    def flow():
        thread = node.thread(1)
        yield from q.enqueue(thread, "a")
        yield from q.enqueue(thread, "b")
        assert node.l2.peek_bound(q.counter) == 2
        item = yield from q.dequeue(node.thread(0))
        log.append(item)
        assert node.l2.peek_bound(q.counter) == 3
        yield from q.enqueue(thread, "c")  # fits again without overflow
        assert q.overflow_enqueues == 0

    env.process(flow())
    env.run()
    assert log == ["a"]


def test_dequeue_empty_returns_none():
    env, node = one_node()
    q = L2AtomicQueue(env, node.l2, size=4)
    out = []

    def consumer():
        item = yield from q.dequeue(node.thread(0))
        out.append(item)

    env.process(consumer())
    env.run()
    assert out == [None]


def test_queue_size_validates():
    env, node = one_node()
    with pytest.raises(ValueError):
        L2AtomicQueue(env, node.l2, size=0)


def test_l2_queue_cheaper_than_mutex_queue_under_contention():
    """The headline claim of §III-A: L2 queues beat mutex queues when
    several producers hammer one consumer."""

    def run(qfactory):
        env, node = one_node()
        q = qfactory(env, node)
        done = []
        n_producers, per = 8, 30

        def producer(pid):
            thread = node.thread(pid + 1)
            for i in range(per):
                yield from q.enqueue(thread, i)
            done.append(pid)

        for pid in range(n_producers):
            env.process(producer(pid))
        env.run()
        return env.now

    t_mutex = run(lambda env, node: MutexQueue(env))
    t_l2 = run(lambda env, node: L2AtomicQueue(env, node.l2, size=1024))
    assert t_l2 < t_mutex


def test_wakeup_signalled_on_enqueue():
    env, node = one_node()
    q = L2AtomicQueue(env, node.l2, size=4)
    woke = []

    def sleeper():
        yield arm_any([q.wakeup])
        woke.append(env.now)

    def producer():
        yield env.timeout(500)
        yield from q.enqueue(node.thread(1), "x")

    env.process(sleeper())
    env.process(producer())
    env.run()
    assert len(woke) == 1 and woke[0] > 500


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=6), st.integers(0, 3)),
        min_size=1,
        max_size=60,
    ),
    qsize=st.integers(min_value=1, max_value=8),
)
def test_property_no_loss_no_dup_arbitrary_interleaving(ops, qsize):
    """Property: any interleaving of producers (with arbitrary delays)
    against one consumer conserves the multiset of messages."""
    env = Environment()
    m = BGQMachine(env, 1)
    node = m.node(0)
    q = L2AtomicQueue(env, node.l2, size=qsize)
    sent = []
    received = []
    total = len(ops)

    def producer(pid, delay, token):
        thread = node.thread(1 + (pid % 7))
        yield env.timeout(delay * 37)
        yield from q.enqueue(thread, token)

    def consumer():
        thread = node.thread(0)
        while len(received) < total:
            item = yield from q.dequeue(thread)
            if item is not None:
                received.append(item)
            else:
                yield env.timeout(23)

    for i, (pid, delay) in enumerate(ops):
        token = (pid, i)
        sent.append(token)
        env.process(producer(pid, delay, token))
    env.process(consumer())
    env.run()
    assert sorted(received) == sorted(sent)


def test_inflight_head_does_not_starve_overflow():
    """A stalled producer (counter incremented, slot pointer not yet
    written) must not starve messages parked in the overflow deque.

    Regression test: `L2AtomicQueue.dequeue` used to return None
    whenever the head slot was in-flight, even with deliverable
    overflow messages — the consumer could spin on None indefinitely
    behind one stalled producer.  Charm++ has no ordering requirement,
    so the dequeue falls through to the overflow check.
    """
    from repro.bgq.l2 import BOUNDED_INCREMENT_FAILED

    env, node = one_node()
    q = L2AtomicQueue(env, node.l2, size=1)
    got = []

    def stalled_producer():
        # Wins the slot... then never writes the message pointer.
        thread = node.thread(4)
        yield from thread.compute(10)
        slot = yield from q.l2.load_increment_bounded(q.counter)
        assert slot is not BOUNDED_INCREMENT_FAILED

    def overflow_producer():
        # Queue (size 1) is claimed: lands in the overflow deque.
        thread = node.thread(5)
        yield env.timeout(5_000)
        yield from q.enqueue(thread, "parked")
        assert q.overflow_enqueues == 1

    def consumer():
        thread = node.thread(0)
        yield env.timeout(10_000)
        assert q.has_ready()
        got.append((yield from q.dequeue(thread)))

    env.process(stalled_producer())
    env.process(overflow_producer())
    env.process(consumer())
    env.run()
    assert got == ["parked"]  # pre-fix: [None] forever


def test_has_ready_matches_dequeue_progress():
    """has_ready() is exactly "dequeue would deliver or charge work"."""
    env, node = one_node()
    q = L2AtomicQueue(env, node.l2, size=4)
    mq = MutexQueue(env)
    assert not q.has_ready()  # empty lockless queue: nothing to do
    assert mq.has_ready()  # mutex queue always pays the lock

    def flow():
        thread = node.thread(4)
        yield from q.enqueue(thread, "x")
        assert q.has_ready()
        item = yield from q.dequeue(thread)
        assert item == "x"
        assert not q.has_ready()

    env.process(flow())
    env.run()
