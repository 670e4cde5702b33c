"""Coverage for node/HWThread behaviours and wakeup-source semantics."""

import pytest

from repro.bgq import BGQMachine, BGQParams, WakeupSource, arm_any
from repro.sim import Environment


def one_node(**kw):
    env = Environment()
    m = BGQMachine(env, 1, params=BGQParams(**kw))
    return env, m.node(0)


def test_node_thread_layout():
    env, node = one_node()
    assert node.n_threads == node.params.threads_per_node == 64
    # Threads map to cores in groups of 4 (BG/Q numbering).
    assert node.thread(0).core is node.thread(3).core
    assert node.thread(4).core is not node.thread(0).core
    assert node.thread(63).core is node.cores[15]
    assert [node.thread(i).slot for i in range(4)] == [0, 1, 2, 3]


def test_hwthread_spin_occupies_core():
    """A spinning thread is a core member (how an idle PE polls), so it
    slows the threads it shares the core with."""
    env, node = one_node()
    core = node.thread(0).core
    done = {}

    def spinner():
        member = core.register(1.0)
        yield env.timeout(10_000)
        core.unregister(member)

    def worker():
        yield from node.thread(1).compute(6_000)
        done["t"] = env.now

    env.process(spinner())
    env.process(worker())
    env.run()
    solo = 6_000 / BGQParams().base_ipc
    assert done["t"] > solo  # the spinner slowed the worker down


def test_hwthread_wait_consumes_nothing():
    env, node = one_node()
    src = WakeupSource(env)
    core = node.thread(0).core
    done = {}

    def waiter():
        yield arm_any([src])

    def worker():
        yield from node.thread(1).compute(6_000)
        done["t"] = env.now

    env.process(waiter())
    env.process(worker())
    env.run(until=1_000_000)
    solo = 6_000 / BGQParams().base_ipc
    assert done["t"] == pytest.approx(solo)  # full single-thread speed


def test_wakeup_latched_signal_fires_next_arm():
    env = Environment()
    src = WakeupSource(env)
    src.signal()  # nothing armed: latches
    got = []

    def waiter():
        yield arm_any([src])
        got.append(env.now)

    env.process(waiter())
    env.run()
    assert len(got) == 1
    assert got[0] == pytest.approx(BGQParams().wakeup_latency)


def test_wakeup_clear_drops_latch():
    env = Environment()
    src = WakeupSource(env)
    src.signal()
    src.clear()
    got = []

    def waiter():
        yield arm_any([src])
        got.append(env.now)

    env.process(waiter())
    env.run(until=10_000)
    assert got == []  # nothing fired; the latch was cleared


def test_wakeup_disarm_prevents_delivery():
    """A waiter leaves every source when it resumes: a later signal on
    a source that did not wake it latches instead of delivering."""
    env = Environment()
    a, b = WakeupSource(env), WakeupSource(env)
    ev = arm_any([a, b])
    a.signal()
    env.run(until=10_000)
    assert ev.processed
    assert a._armed == [] and b._armed == []
    b.signal()
    env.run(until=20_000)
    assert b._latched and b.wakeups == 0


def test_wakeup_multiple_waiters_all_fire():
    env = Environment()
    src = WakeupSource(env)
    got = []

    def waiter(tag):
        yield arm_any([src])
        got.append(tag)

    env.process(waiter("a"))
    env.process(waiter("b"))

    def signaller():
        yield env.timeout(100)
        src.signal()

    env.process(signaller())
    env.run()
    assert sorted(got) == ["a", "b"]
