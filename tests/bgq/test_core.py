"""Tests for the A2 core SMT sharing model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgq import Core
from repro.bgq.params import BGQParams
from repro.sim import Environment, Interrupt, Process, SimulationError, TimeoutOr


def run_threads(n, instructions=10000.0, weights=None, params=None):
    env = Environment()
    core = Core(env, params=params or BGQParams())
    finish = []

    def worker(i, w):
        yield from core.compute(instructions, weight=w)
        finish.append((i, env.now))

    weights = weights or [1.0] * n
    for i in range(n):
        env.process(worker(i, weights[i]))
    env.run()
    return env, core, finish


def test_single_thread_runs_at_base_ipc():
    p = BGQParams()
    env, _, finish = run_threads(1, instructions=6000)
    assert finish[0][1] == pytest.approx(6000 / p.base_ipc)


def test_four_threads_give_2_3x_aggregate():
    """The paper's measured SMT scaling: 4 threads = 2.3x one thread."""
    p = BGQParams()
    _, _, f1 = run_threads(1, instructions=10000)
    _, _, f4 = run_threads(4, instructions=10000)
    t1 = f1[0][1]
    t4 = max(t for _, t in f4)
    # 4 threads each doing the same work in t4: aggregate speedup = 4*t1/t4
    speedup = 4 * t1 / t4
    assert speedup == pytest.approx(2.3, rel=0.02)


def test_two_threads_between_1x_and_2x():
    _, _, f1 = run_threads(1, instructions=10000)
    _, _, f2 = run_threads(2, instructions=10000)
    speedup = 2 * f1[0][1] / max(t for _, t in f2)
    assert 1.3 < speedup < 2.0


def test_low_weight_spinner_barely_slows_compute():
    """Optimized idle poll (weight ~1/60, §III-D) costs compute <3%."""
    p = BGQParams()
    env = Environment()
    core = Core(env, params=p)
    done = []

    def spinner():
        m = core.register(p.idle_poll_l2_weight)
        yield env.timeout(1e9)
        core.unregister(m)

    def worker():
        yield from core.compute(10000)
        done.append(env.now)

    env.process(spinner())
    env.process(worker())
    env.run(until=1e8)
    solo = 10000 / p.base_ipc
    assert done[0] < solo * 1.03


def test_naive_spinner_slows_compute_substantially():
    """A naive spin loop (weight 1.0) steals issue slots from workers."""
    p = BGQParams()
    env = Environment()
    core = Core(env, params=p)
    done = []

    def spinner():
        core.register(p.idle_poll_naive_weight)
        yield env.timeout(1e9)

    def worker():
        yield from core.compute(10000)
        done.append(env.now)

    env.process(spinner())
    env.process(worker())
    env.run(until=1e8)
    solo = 10000 / p.base_ipc
    assert done[0] > solo * 1.15


def test_membership_change_rescales_rates():
    """A thread finishing early speeds up the remaining one."""
    env = Environment()
    p = BGQParams()
    core = Core(env, params=p)
    times = {}

    def worker(tag, instr):
        yield from core.compute(instr)
        times[tag] = env.now

    env.process(worker("short", 1000))
    env.process(worker("long", 10000))
    env.run()
    # The long worker must beat the all-shared lower bound: once the
    # short one finishes it runs solo.
    shared_rate = p.base_ipc / (1 + p.smt_interference)
    all_shared = 10000 / shared_rate
    assert times["long"] < all_shared
    solo = 10000 / p.base_ipc
    assert times["long"] > solo  # but slower than a pure solo run


def test_zero_instructions_is_instant():
    env = Environment()
    core = Core(env)
    out = []

    def worker():
        yield from core.compute(0)
        out.append(env.now)
        return
        yield  # keep generator shape even if compute returns fast

    env.process(worker())
    env.run()
    assert out == [0]


def test_negative_instructions_rejected():
    env = Environment()
    core = Core(env)

    def worker():
        yield from core.compute(-5)

    env.process(worker())
    with pytest.raises(ValueError):
        env.run()


def test_weights_validate():
    env = Environment()
    core = Core(env)
    with pytest.raises(ValueError):
        core.register(-1.0)


def test_unregister_is_idempotent():
    env = Environment()
    core = Core(env)
    m = core.register(1.0)
    core.unregister(m)
    core.unregister(m)  # no error
    assert core.n_members == 0


def test_aggregate_issue_width_respected():
    """However many threads run, total throughput stays <= issue width."""
    p = BGQParams(base_ipc=1.0, smt_interference=0.0)  # remove other limits
    env, core, finish = run_threads(4, instructions=8000, params=p)
    total_time = max(t for _, t in finish)
    aggregate_ipc = 4 * 8000 / total_time
    assert aggregate_ipc <= p.core_issue_width + 1e-6


# -- the direct two-way chunk wait -------------------------------------------


@pytest.fixture
def resumes(monkeypatch):
    """Every process resumption, logged as ``(process name, now, event)``
    (processes created after the fixture only)."""
    log = []
    resume = Process._resume

    def logged(self, event):
        log.append((self.name, self.env.now, event))
        resume(self, event)

    monkeypatch.setattr(Process, "_resume", logged)
    return log


def test_chunk_that_loses_to_a_change_is_cancelled_and_resumes_once(resumes):
    env = Environment()
    core = Core(env)
    finished = []

    def worker():
        yield from core.compute(10_000)
        finished.append(env.now)

    def newcomer():
        yield env.timeout(100)
        core.register(1.0)  # stays: the worker's second chunk runs shared

    proc = env.process(worker())
    env.process(newcomer())
    env.run(until=50)
    chunk, change = proc._target, core._change
    assert isinstance(chunk, TimeoutOr) and chunk.other is change
    assert change.callbacks == [proc._resume_cb]
    env.run()
    # The change won at t=100: the losing timeout (due at the solo
    # deadline) was cancelled, and its later pop resumed nobody.
    assert chunk.processed and chunk.callbacks is None
    woken = [(t, ev) for name, t, ev in resumes if name == "worker"][1:]
    assert woken[0] == (100.0, change)
    assert [t for t, _ in woken] == [100.0, finished[0]]
    assert finished[0] > 10_000 / BGQParams().base_ipc


def test_chunk_that_wins_leaves_no_resume_on_the_change_event(resumes):
    env = Environment()
    core = Core(env)
    proc = env.process(core.compute(1_000))
    env.run(until=1.0)
    chunk, change = proc._target, core._change
    assert change.callbacks == [proc._resume_cb]
    env.run()
    assert [(t, ev) for _, t, ev in resumes][1:] == [(1_000 / BGQParams().base_ipc, chunk)]
    assert not change.callbacks and not change.triggered
    # Nobody listened, so neither the register nor the unregister
    # scheduled a change event: process start, the one chunk, process end.
    assert env.events_executed == 3


@pytest.mark.parametrize("change_first", [False, True])
def test_interrupt_mid_compute_leaves_no_spurious_resume(change_first):
    """Interrupt a process mid-chunk, optionally with a membership change
    queued ahead of the interrupt: the Interrupt arrives once, and
    neither the cancelled chunk nor the change event resumes the process
    again."""
    env = Environment()
    core = Core(env)
    log = []

    def victim():
        try:
            yield from core.compute(10_000)
        except Interrupt as exc:
            log.append(("interrupted", env.now, exc.cause))
        yield env.timeout(500)
        log.append(("slept", env.now))

    def attacker(target):
        yield env.timeout(100)
        if change_first:
            core.register(1.0)
        target.interrupt("stop")

    v = env.process(victim())
    env.process(attacker(v))
    env.run()
    assert log == [("interrupted", 100.0, "stop"), ("slept", 600.0)]
    assert core.n_members == (1 if change_first else 0)


def test_compute_outside_a_process_is_a_named_error():
    env = Environment()
    core = Core(env)
    with pytest.raises(SimulationError, match="yielded by a Process"):
        next(core.compute(100))
    assert core.n_members == 0


# -- the cached rate inputs --------------------------------------------------


def _uncached_rate(core, member):
    """The rate formula evaluated from scratch, in its original order."""
    w = member.weight
    if w <= 0:
        return 0.0
    p = core.params
    members = core._members.values()
    n_eff = sum(m.weight for m in members)
    cap = p.thread_issue_cap
    per_unit = p.base_ipc / (1.0 + max(0.0, n_eff - 1.0) * p.smt_interference)
    rate = min(w * per_unit, cap * min(1.0, w))
    total = 0.0
    for m in members:
        mw = m.weight
        total += min(mw * per_unit, cap * min(1.0, mw))
    width = p.core_issue_width
    if total > width:
        rate *= width / total
    return rate


_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 1.0, 1.0 / 60, 0.25, 0.5]),
    st.floats(0.0, 3.0, allow_nan=False),
)
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["register", "set_weight", "unregister"]),
        st.integers(0, 7),
        _WEIGHTS,
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS, params=st.sampled_from([BGQParams(), BGQParams(base_ipc=1.0, smt_interference=0.0)]))
def test_cached_rate_equals_the_uncached_formula_at_every_step(ops, params):
    core = Core(Environment(), params=params)
    members = []
    for op, i, w in ops:
        if op == "register" or not members:
            members.append(core.register(w))
        elif op == "set_weight":
            m = members[i % len(members)]
            if m.id in core._members:
                core.set_weight(m, w)
        else:
            core.unregister(members[i % len(members)])
        for m in members:
            if m.id in core._members:
                assert core.rate_of(m) == _uncached_rate(core, m)
