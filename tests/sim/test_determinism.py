"""Determinism fuzz suite for the engine fast path.

Two properties, checked over randomized producer/consumer workloads:

1. **Run-to-run determinism** — the same seed produces bit-identical
   trajectories (event counts, final simulated time, queue and L2
   statistics) across repeated runs.

2. **Fast path == slow path** — the reference scheduler defined here
   (``_heap_only``: every event, zero-delay ones included, goes through
   the one ``(time, seq)`` heap instead of the engine's zero-delay
   deque, see ``repro.sim.engine``) yields a bit-identical trajectory.
   This is the engine's core invariant: the fast path must be
   cycle-for-cycle neutral, not merely "statistically equivalent".  The
   reference lives in this file only; the engine has no switch for it.

3. **Every way of driving the engine is the same engine** — the same
   seed driven by ``run()``, chained ``run(until=t)``, ``peek()``/
   ``step()`` or ``run_window()`` slices, plain or under the sanitizer,
   the profiler (exact and sampled) or the heap-only reference, ends at
   the same clock with the same event count and the same time at every
   process resumption.  ``run``/``run_window``/hooked ``step`` share one
   dispatch loop and un-hooked ``step`` has its own body; this matrix
   is what holds the two together.

All random choices are drawn *before* the simulation starts, so the
workload itself cannot leak host iteration order into the trajectory.
"""

import contextlib
import heapq
import random

import pytest

from repro.analysis.sanitizer import SanitizerError, sanitized
from repro.bgq import BGQMachine
from repro.converse import RunConfig
from repro.harness.pingpong import pingpong_run
from repro.obs import ProfileSession
from repro.queues import L2AtomicQueue, MutexQueue
from repro.sim import Environment, SimulationError

SEEDS = [7, 23, 1234]

_INF = float("inf")
_SLICES = 8


def _drive(env: Environment, drive: str, horizon: float) -> None:
    """Drain ``env`` the named way; sliced drives cut ``[0, horizon)``
    into ``_SLICES`` and drain the rest unbounded, so the clock ends on
    the last event like a plain ``run()``."""
    cuts = [horizon * i / _SLICES for i in range(1, _SLICES)]
    if drive == "run":
        env.run()
    elif drive == "chained":
        for t in cuts:
            env.run(until=t)
        env.run()
    elif drive == "step":
        while env.peek() != _INF:
            env.step()
    elif drive == "window":
        for t in cuts:
            env.run_window(t)
        env.run_window(_INF)
    else:  # pragma: no cover - test-table typo
        raise ValueError(drive)


def _fuzz_workload(seed: int, drive: str = "run", horizon: float = 0.0) -> dict:
    """Randomized queues + SMT compute + wakeup workload; returns a
    trajectory fingerprint (exact reprs, no tolerances)."""
    rng = random.Random(seed)
    # Pre-draw every random choice (see module docstring).
    qsize = rng.choice([1, 2, 4, 16])
    n_producers = rng.randint(2, 5)
    plans = [
        [(rng.randint(0, 4000), rng.randint(0, 1)) for _ in range(rng.randint(3, 12))]
        for _ in range(n_producers)
    ]
    compute_plans = [
        (rng.randint(1, 6), rng.uniform(100, 5000), rng.choice([1.0, 1.0, 0.25]))
        for _ in range(rng.randint(1, 4))
    ]
    total = sum(len(p) for p in plans)

    env = Environment()
    machine = BGQMachine(env, 1)
    node = machine.node(0)
    l2q = L2AtomicQueue(env, node.l2, size=qsize)
    mq = MutexQueue(env)
    received = []
    times = []  # the clock at every resumption of a workload process

    def producer(pid, plan):
        thread = node.thread(8 + pid)
        for i, (delay, which) in enumerate(plan):
            yield env.timeout(delay)
            times.append(repr(env.now))
            q = l2q if which == 0 else mq
            yield from q.enqueue(thread, (pid, i))
            times.append(repr(env.now))

    def consumer():
        thread = node.thread(0)
        while len(received) < total:
            item = yield from l2q.dequeue(thread)
            if item is None:
                item = yield from mq.dequeue(thread)
            times.append(repr(env.now))
            if item is not None:
                received.append(item)
                continue
            # Sleep on the queues' wakeup sources (arm/disarm path).
            armed = [(s, s.arm(latency=60.0)) for s in (l2q.wakeup, mq.wakeup)]
            yield env.any_of([ev for _, ev in armed])
            for s, ev in armed:
                s.disarm(ev)

    def computer(cid, reps, instr, weight):
        thread = node.thread(1 + cid)
        for _ in range(reps):
            yield from thread.compute(instr, weight)
            times.append(repr(env.now))
            yield env.timeout(17 * (cid + 1))
            times.append(repr(env.now))

    for pid, plan in enumerate(plans):
        env.process(producer(pid, plan))
    env.process(consumer())
    for cid, (reps, instr, weight) in enumerate(compute_plans):
        env.process(computer(cid, reps, instr, weight))
    _drive(env, drive, horizon)

    return {
        "now": repr(env.now),
        "events": env.events_executed,
        "times": times,
        "received": received,
        "l2q": (l2q.enqueues, l2q.dequeues, l2q.overflow_enqueues),
        "mq": (mq.enqueues, mq.dequeues),
        "l2_ops": node.l2.op_count,
        "wakeups": (l2q.wakeup.signals, l2q.wakeup.wakeups, mq.wakeup.signals),
        "instructions": repr(sum(t.instructions for t in node.threads)),
    }


def _pingpong_fingerprint() -> dict:
    run = pingpong_run(
        RunConfig(nnodes=2, workers_per_process=2, comm_threads_per_process=1),
        nbytes=256,
        trips=6,
    )
    return {"sim_time": repr(run["sim_time"]), "events": run["events"]}


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_workload_run_twice_identical(seed):
    assert _fuzz_workload(seed) == _fuzz_workload(seed)


class _HeapOnlyImm:
    """Stands in for an Environment's zero-delay deque: it is always
    empty, because every entry appended to it is pushed onto the heap."""

    __slots__ = ("heap", "diverted")

    def __init__(self, heap: list) -> None:
        self.heap = heap
        self.diverted = 0

    def __bool__(self) -> bool:
        return False

    def append(self, entry) -> None:
        heapq.heappush(self.heap, entry)
        self.diverted += 1


@contextlib.contextmanager
def _heap_only():
    """Every Environment built inside schedules through its heap alone —
    the single-heap reference the zero-delay deque must reproduce.
    Yields the list of installed stand-ins."""
    init = Environment.__init__
    installed = []

    def heap_only_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._imm = _HeapOnlyImm(self._queue)
        installed.append(self._imm)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Environment, "__init__", heap_only_init)
        yield installed


def test_heap_only_reference_really_bypasses_the_deque():
    with _heap_only() as installed:
        env = Environment()
    env.event().succeed()
    env.timeout(0.0)
    env.run()
    assert env.events_executed == 2
    assert [imm.diverted for imm in installed] == [2]


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_workload_fastpath_matches_slowpath(seed):
    fast = _fuzz_workload(seed)
    with _heap_only():
        slow = _fuzz_workload(seed)
    assert fast == slow


def test_pingpong_fastpath_matches_slowpath():
    """Full-stack coverage: Converse runtime + PAMI + MU + torus."""
    fast = _pingpong_fingerprint()
    with _heap_only():
        slow = _pingpong_fingerprint()
    assert fast == slow


# -- drive-mode x hook equivalence matrix ---------------------------------

DRIVES = ["run", "chained", "step", "window"]


#: Everything an Environment samples at construction.
HOOKS = {
    "plain": contextlib.nullcontext,
    "sanitized": sanitized,
    "profiled-exact": lambda: ProfileSession("matrix", stride=1),
    "profiled-sampled": lambda: ProfileSession("matrix", stride=32),
    "slowpath": _heap_only,
}


@pytest.fixture
def clean_engine_env(monkeypatch):
    """The matrix sets its own hooks: start every cell from none."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)


@pytest.mark.parametrize("hook", HOOKS)
@pytest.mark.parametrize("drive", DRIVES)
@pytest.mark.parametrize("seed", SEEDS)
def test_every_drive_mode_and_hook_is_the_same_trajectory(
    seed, drive, hook, clean_engine_env
):
    reference = _fuzz_workload(seed)
    horizon = float(reference["now"])
    assert horizon > 0 and reference["times"]
    with HOOKS[hook]() as session:
        cell = _fuzz_workload(seed, drive, horizon)
    assert cell == reference
    if isinstance(session, ProfileSession):
        # Hooked however it is driven: every event was seen by the profiler.
        assert session.profile().total_count == cell["events"]


@pytest.mark.parametrize("hook", HOOKS)
def test_step_on_empty_queue_raises_in_every_mode(hook, clean_engine_env):
    with HOOKS[hook]():
        env = Environment()
    with pytest.raises(SimulationError, match="empty event queue"):
        env.step()
    # ... and after a drain, not only on a fresh engine.
    env.timeout(1.0)
    env.step()
    with pytest.raises(SimulationError, match="empty event queue"):
        env.step()
    assert env.events_executed == 1 and env.now == 1.0


def test_reentrant_run_inside_run_window_is_caught_by_sanitizer(clean_engine_env):
    with sanitized():
        env = Environment()
    ev = env.event()
    ev._add_callback(lambda _ev: env.run())
    ev.succeed()
    env.timeout(1.0)  # pending work for the reentrant run() to grab
    with pytest.raises(SanitizerError, match="reentrant"):
        env.run_window(10.0)
    # The guard is released on the way out: the engine is usable again.
    env.run_window(10.0)
    assert env.now == 10.0 and env.events_executed == 2
