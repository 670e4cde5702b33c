"""Tests for the A2 core SMT sharing model."""

import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgq import Core
from repro.bgq.core import _Chunk
from repro.bgq.params import BGQParams
from repro.sim import Environment, Process, SimulationError, Ticket


def run_threads(n, instructions=10000.0, params=None):
    env = Environment()
    core = Core(env, params=params or BGQParams())
    finish = []

    def worker(i):
        yield from core.compute(instructions)
        finish.append((i, env.now))

    for i in range(n):
        env.process(worker(i))
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


@pytest.mark.parametrize(
    "instructions,weight",
    [(math.nan, 1.0), (math.inf, 1.0), (100.0, math.nan), (100.0, math.inf)],
)
def test_a_non_finite_compute_is_a_named_error(instructions, weight):
    """NaN work used to finish at once and retire NaN instructions; an
    infinite count has no finite end either, and neither has work beside
    an occupant of non-finite weight, which register() refuses."""
    env = Environment()
    core = Core(env)

    def worker():
        member = core.register(weight)
        try:
            yield from core.compute(instructions)
        finally:
            core.unregister(member)

    env.process(worker())
    with pytest.raises(ValueError, match="finite"):
        env.run()
    assert core.instructions_retired == 0.0 and core.n_members == 0


def test_weights_validate():
    env = Environment()
    core = Core(env)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            core.register(bad)
    assert core.n_members == 0
    core.register(0.0)  # a zero-weight occupant (a waiting thread) is legal
    assert core.n_members == 1 and core.occupancy == 0.0


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


# -- core-owned compute chunks -----------------------------------------------


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
        core.register(1.0)  # stays: the rest of the work runs shared

    env.process(worker())
    env.process(newcomer())
    env.run(until=50)
    chunk = core._running[0]
    first = chunk.ticket
    assert core._attached == [chunk]
    assert first.callbacks is not None  # the only chunk: its end is pushed
    env.run()
    # The change popped at t=100 and re-keyed the chunk: the first end
    # (due at the solo deadline) was cancelled, and its later pop resumed
    # nobody.  The process woke once, when the work was done.
    assert first.processed and first.callbacks is None
    assert chunk.ticket is None and chunk.at is None
    woken = [(t, ev) for name, t, ev in resumes if name == "worker"][1:]
    assert woken == [(finished[0], chunk)]
    assert finished[0] > 10_000 / BGQParams().base_ipc


def test_chunk_that_wins_leaves_no_resume_on_the_change_event(resumes):
    env = Environment()
    core = Core(env)
    env.process(core.compute(1_000))
    env.run(until=1.0)
    chunk = core._running[0]
    assert core._attached == [chunk]
    env.run()
    assert [(t, ev) for _, t, ev in resumes][1:] == [(1_000 / BGQParams().base_ipc, chunk)]
    assert core._attached == [] and core._running == []
    # Nothing else ran, so neither the register nor the unregister
    # scheduled a change event: process start, the chunk end, process end.
    assert env.events_executed == 3


@pytest.fixture
def in_rekey(monkeypatch):
    """Non-empty while a change pop re-keys chunks (cores made after the
    fixture only)."""
    inside = []
    rekey = Core._rekey

    def spy(self, ev):
        inside.append(ev)
        try:
            rekey(self, ev)
        finally:
            inside.pop()

    monkeypatch.setattr(Core, "_rekey", spy)
    return inside


def test_equal_computes_started_together_keep_their_tie_order(in_rekey):
    """Two equal computes started at t=0 end at the same timestamp, P2
    first: P1's end was re-keyed at the change P2's arrival scheduled,
    so P2's key is older.  P2's exit then schedules a change, but P1's
    end took its key before it and pops first.  (Re-keying synchronously
    inside register/unregister finishes P1 first, at the same time;
    deferring P1's end to the pending change finishes it inside that
    pop — every checksum gate passes both, so this pin is what catches
    them.)"""
    env = Environment()
    core = Core(env)
    order = []

    def worker(tag):
        yield from core.compute(1000)
        order.append((tag, repr(env.now), bool(in_rekey)))

    env.process(worker("P1"))
    env.process(worker("P2"))
    env.run()
    assert order == [("P2", "2077.3333333333335", False), ("P1", "2077.3333333333335", False)]


def test_a_chunk_done_at_a_change_pop_resumes_there(in_rekey):
    """A change one ulp before a chunk's end leaves it a residual below
    the instruction epsilon: the change pop finishes it and resumes its
    process inline, and its scheduled end is cancelled."""
    env = Environment()
    core = Core(env)
    just_before = math.nextafter(1000 / BGQParams().base_ipc, 0.0)
    log = []

    def worker():
        yield from core.compute(1000)
        log.append((env.now, bool(in_rekey)))

    def newcomer():
        yield env.timeout(just_before)
        core.register(1.0)

    env.process(worker())
    env.process(newcomer())
    env.run(until=1.0)
    end = core._running[0].ticket
    env.run()
    assert log == [(just_before, True)]
    assert end.processed and end.callbacks is None


def test_finished_computes_leave_no_chunk_ticket_cycle(monkeypatch):
    """2,000 computes on one core, re-keyed by a coming and going
    occupant: with the collector off, none of their chunks or tickets
    is left in a reference cycle for it.
    Only this test's own environment counts: ``gc.garbage`` also saves
    the cycles of environments that earlier tests abandoned."""
    log = {"rekeys": 0, "computes": 0}
    rekey = Core._rekey

    def counted(self, ev):
        log["rekeys"] += 1
        rekey(self, ev)

    monkeypatch.setattr(Core, "_rekey", counted)
    env = Environment()
    core = Core(env)

    def worker(n, size):
        for i in range(n):
            yield from core.compute(size + i % 7)
            log["computes"] += 1

    def occupant():
        for _ in range(300):
            member = core.register(1.0)
            yield env.timeout(370)
            core.unregister(member)
            yield env.timeout(530)

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        procs = [env.process(worker(1_000, 300)), env.process(worker(1_000, 450)),
                 env.process(occupant())]
        env.run()
        gc.collect()
        cyclic = [
            type(o).__name__ for o in gc.garbage
            if isinstance(o, (_Chunk, Ticket)) and o.env is env
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert all(not p.is_alive for p in procs)
    assert log["computes"] == 2_000 and log["rekeys"] > 1_000
    assert cyclic == []


def test_compute_outside_a_process_is_a_named_error():
    env = Environment()
    core = Core(env)
    with pytest.raises(SimulationError, match="yielded by a Process"):
        next(core.compute(100))
    assert core.n_members == 0


_START = st.sampled_from([0.0, 0.0, 50.0, 700.0, 1666.0])
_STEP = st.one_of(
    st.tuples(st.just("compute"), st.integers(0, 1), _START,
              st.sampled_from([500.0, 1000.0, 1000.0, 2500.0])),
    st.tuples(st.just("occupant"), st.integers(0, 1), _START,
              st.sampled_from([1.0, 1.0 / 60, 0.0]), st.sampled_from([1.0, 0.25, 0.0]),
              st.sampled_from([10.0, 400.0])),
)


def _scenario(script, ncores, drive):
    """Run ``script`` on ``ncores`` cores, driven by ``drive``; check that
    every compute resumed from its chunk exactly once, and that nothing
    is left behind; return the repr'd outcome of every
    step and the event count."""
    env = Environment()
    cores = [Core(env) for _ in range(ncores)]
    outcome, chunk_resumes, procs, computes = {}, {}, [], []
    resume = Process._resume

    def counted(self, event):
        if isinstance(event, _Chunk):
            chunk_resumes[self.name] = chunk_resumes.get(self.name, 0) + 1
        resume(self, event)

    def computer(i, core, start, instructions):
        yield env.timeout(start)
        yield from core.compute(instructions)
        outcome[i] = ("done", repr(env.now))

    def occupant(i, core, start, w0, w1, hold):
        yield env.timeout(start)
        member = core.register(w0)
        yield env.timeout(hold)
        core.unregister(member)
        member = core.register(w1)
        yield env.timeout(hold)
        core.unregister(member)
        outcome[i] = ("left", repr(env.now))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Process, "_resume", counted)
        for i, (kind, which, start, *rest) in enumerate(script):
            if kind == "compute":
                computes.append(env.process(computer(i, cores[which % ncores], start, *rest), f"c{i}"))
                procs.append(computes[-1])
            else:
                procs.append(env.process(occupant(i, cores[which % ncores], start, *rest)))
        drive(env)
    assert all(not p.is_alive for p in procs)
    assert env.peek() == float("inf")
    for core in cores:
        assert (core._running, core._attached, core._pending, core.n_members) == ([], [], 0, 0)
    for p in computes:
        assert chunk_resumes.get(p.name, 0) == 1, p.name
    return outcome, env.events_executed


def _step_all(env):
    while env.peek() != float("inf"):
        env.step()


def _windows(env):
    stop = 0.0
    while env.peek() != float("inf"):
        stop += 97.0
        env.run_window(stop)


@settings(max_examples=80, deadline=None)
@given(script=st.lists(_STEP, min_size=1, max_size=9), ncores=st.sampled_from([1, 2]))
def test_interleaved_computes_resume_once_and_drive_alike(script, ncores):
    """Computes (equal sizes at equal times among them) and occupants
    that come, rejoin at a new weight and go, on one or two cores: every
    compute resumes its process exactly once, from its chunk, nothing
    is left on the heap or the cores, and run(), peek()/step() and
    run_window slices finish every step at the same repr'd time."""
    ran = _scenario(script, ncores, lambda env: env.run())
    assert _scenario(script, ncores, _step_all) == ran
    assert _scenario(script, ncores, _windows) == ran


# -- the cached rate inputs --------------------------------------------------


def _uncached_rate(core, member):
    """The rate formula evaluated from scratch, in its original order."""
    w = member.weight
    if w <= 0:
        return 0.0
    p = core.params
    weights = list(core._members.values())
    n_eff = sum(weights)
    cap = p.thread_issue_cap
    per_unit = p.base_ipc / (1.0 + max(0.0, n_eff - 1.0) * p.smt_interference)
    rate = min(w * per_unit, cap * min(1.0, w))
    total = 0.0
    for mw in weights:
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
        st.sampled_from(["register", "unregister"]),
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
        else:
            core.unregister(members[i % len(members)])
        # What a compute's chunk would run at beside these occupants.
        unit = core.register(1.0)
        assert core._unit_rate() == _uncached_rate(core, unit)
        core.unregister(unit)
