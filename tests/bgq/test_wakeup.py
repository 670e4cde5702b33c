"""``arm_any`` against a model: one wake per waiting thread.

A ``hypothesis`` state machine arms waits on one to four wakeup
sources, signals and clears them, and runs the clock forward.  A model
of the wakeup unit predicts, for each wait, the time of its one
delivery (a latched source fires it at arm, otherwise the first signal
to an armed source does; either way ``delay`` later), and for each
source its ``signals``/``wakeups``/``latched_fires`` counters and
latch.  A wait leaves every source when it resumes; until then, a
signal to it counts a wakeup but neither latches nor wakes it again.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.bgq import BGQParams, WakeupSource, arm_any
from repro.sim import Environment

LATENCIES = (None, 0.0, 60.0)
STEPS = (1.0, 59.0, 60.0, 61.0, 160.0, 400.0)
MAX_OPEN = 4


class _Wait:
    def __init__(self, sources, delay):
        self.sources = sources  # indices, in arm order
        self.armed = set()  # indices still holding this wait
        self.delay = delay
        self.due = None  # delivery time, once fired
        self.resumed = False
        self.seen = []  # clock at each resume the engine ran


class WakeupMachine(RuleBasedStateMachine):
    @initialize(n=st.integers(1, 4))
    def build(self, n):
        self.env = Environment()
        self.params = BGQParams()
        self.sources = [WakeupSource(self.env, f"s{i}", self.params) for i in range(n)]
        self.latched = [False] * n
        self.signals = [0] * n
        self.wakeups = [0] * n
        self.latched_fires = [0] * n
        self.waits = []

    def _open(self):
        return [w for w in self.waits if not w.resumed]

    def _fire(self, w):
        if w.due is None:
            w.due = self.env.now + w.delay

    @precondition(lambda self: len(self._open()) < MAX_OPEN)
    @rule(data=st.data(), latency=st.sampled_from(LATENCIES))
    def arm(self, data, latency):
        n = len(self.sources)
        picks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                   unique=True))
        delay = self.params.wakeup_latency if latency is None else latency
        w = _Wait(picks, delay)
        for i in picks:
            if self.latched[i]:
                self.latched[i] = False
                self.latched_fires[i] += 1
                self.wakeups[i] += 1
                self._fire(w)
            else:
                w.armed.add(i)
        ev = arm_any([self.sources[i] for i in picks], latency)
        ev.callbacks.append(lambda _ev, w=w: w.seen.append(self.env.now))
        self.waits.append(w)

    @rule(data=st.data())
    def signal(self, data):
        i = data.draw(st.integers(0, len(self.sources) - 1))
        self.signals[i] += 1
        holders = [w for w in self._open() if i in w.armed]
        if holders:
            for w in holders:
                w.armed.discard(i)
                self.wakeups[i] += 1
                self._fire(w)
        else:
            self.latched[i] = True
        self.sources[i].signal()

    @rule(data=st.data())
    def clear(self, data):
        i = data.draw(st.integers(0, len(self.sources) - 1))
        self.latched[i] = False
        self.sources[i].clear()

    @rule(dt=st.sampled_from(STEPS))
    def run_to(self, dt):
        until = self.env.now + dt
        for w in self._open():
            if w.due is not None and w.due < until:
                w.resumed = True
                w.armed.clear()
        self.env.run(until=until)

    @invariant()
    def each_wait_resumes_once_at_its_first_delivery(self):
        for w in self.waits:
            assert w.seen == ([w.due] if w.resumed else [])

    @invariant()
    def counters_and_latches_match(self):
        for i, s in enumerate(self.sources):
            assert (s.signals, s.wakeups, s.latched_fires, s._latched) == (
                self.signals[i], self.wakeups[i], self.latched_fires[i], self.latched[i])

    @invariant()
    def only_open_waits_stay_armed(self):
        for i, s in enumerate(self.sources):
            expected = [w for w in self._open() if i in w.armed]
            assert len(s._armed) == len(expected)


TestArmAny = WakeupMachine.TestCase
TestArmAny.settings = settings(max_examples=150, stateful_step_count=30, deadline=None)


def test_a_latched_source_fires_at_arm():
    env = Environment()
    a, b = WakeupSource(env), WakeupSource(env)
    b.signal()
    ev = arm_any([a, b], 60.0)
    assert (b._latched, b.latched_fires, b.wakeups, a._armed) == (False, 1, 1, [ev])
    env.run(until=60.0)
    assert not ev.processed  # run(until=t) leaves events at t for later
    env.run(until=61.0)
    assert ev.processed and a._armed == []


def test_a_signal_to_a_fired_waiter_neither_latches_nor_wakes_it_again():
    env = Environment()
    a, b = WakeupSource(env), WakeupSource(env)
    woke = []
    ev = arm_any([a, b])
    ev.callbacks.append(lambda _ev: woke.append(env.now))
    a.signal()
    env.run(until=10.0)
    b.signal()  # the delivery from a is still under way
    events = env.events_executed
    env.run()
    assert woke == [BGQParams().wakeup_latency]
    assert (b.wakeups, b._latched) == (1, False)
    # The delivery chain is the trampoline, its timeout and the waiter;
    # the signal to b scheduled nothing.
    assert env.events_executed - events == 2
