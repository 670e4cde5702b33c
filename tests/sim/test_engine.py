"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError, Ticket


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc():
        yield env.timeout(10)
        done.append(env.now)
        yield env.timeout(5.5)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [10, 15.5]
    assert env.now == 15.5


def test_timeout_value_passthrough():
    env = Environment()
    got = []

    def proc():
        v = yield env.timeout(1, value="hello")
        got.append(v)

    env.process(proc())
    env.run()
    assert got == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        v = yield ev
        got.append((env.now, v))

    def firer():
        yield env.timeout(3)
        ev.succeed(42)

    env.process(waiter())
    env.process(firer())
    env.run()
    assert got == [(3, 42)]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_propagates_into_process():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as e:
            caught.append(str(e))

    def firer():
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    env.process(waiter())
    env.process(firer())
    env.run()
    assert caught == ["boom"]


def test_unhandled_failed_event_raises():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("nobody listening"))
    with pytest.raises(RuntimeError, match="nobody listening"):
        env.run()


def test_process_return_value_via_wait():
    env = Environment()
    result = []

    def child():
        yield env.timeout(2)
        return "child-result"

    def parent():
        v = yield env.process(child())
        result.append((env.now, v))

    env.process(parent())
    env.run()
    assert result == [(2, "child-result")]


def test_same_time_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def make(tag):
        def proc():
            yield env.timeout(5)
            order.append(tag)

        return proc

    for tag in ("a", "b", "c"):
        env.process(make(tag)())
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10)

    env.process(proc())
    env.run(until=25)
    assert env.now == 25


def test_run_until_time_bound_is_exclusive():
    """Events scheduled exactly at `until` belong to the *next* window.

    Regression test: the bound used to be inclusive (`> stop_time`), so
    windowed drivers calling run(until=...) repeatedly executed boundary
    events in the wrong window.
    """
    env = Environment()
    hits = []

    def proc():
        yield env.timeout(10)
        hits.append(env.now)
        yield env.timeout(10)
        hits.append(env.now)

    env.process(proc())
    env.run(until=10)
    assert hits == []  # the t=10 event is outside the [0, 10) window
    assert env.now == 10
    env.run(until=20)
    assert hits == [10.0]  # window [10, 20): the t=20 event again excluded
    assert env.now == 20
    env.run()
    assert hits == [10.0, 20.0]


def test_run_until_event():
    env = Environment()
    ev = env.event()

    def proc():
        yield env.timeout(7)
        ev.succeed("done")
        yield env.timeout(100)

    env.process(proc())
    val = env.run(until=ev)
    assert val == "done"
    assert env.now == 7


def test_run_until_event_never_fires_is_error():
    env = Environment()
    ev = env.event()

    def proc():
        yield env.timeout(1)

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_run_until_past_rejected():
    env = Environment()
    env.run(until=10)
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_all_of_waits_for_everything():
    env = Environment()
    got = []

    def proc():
        t1 = env.timeout(3, value="x")
        t2 = env.timeout(9, value="y")
        res = yield env.all_of([t1, t2])
        got.append((env.now, list(res)))

    env.process(proc())
    env.run()
    assert got == [(9, ["x", "y"])]


def test_any_of_fires_on_first():
    env = Environment()
    got = []

    def proc():
        t1 = env.timeout(3, value="fast")
        t2 = env.timeout(9, value="slow")
        yield env.any_of([t1, t2])
        got.append(env.now)

    env.process(proc())
    env.run()
    assert got[0] == 3


def test_all_of_empty_fires_immediately():
    env = Environment()
    got = []

    def proc():
        yield env.all_of([])
        got.append(env.now)

    env.process(proc())
    env.run()
    assert got == [0]


def test_any_of_member_failing_after_trigger_is_defused():
    """A constituent that fails *after* the condition fired must not
    crash the run.

    Regression test: `_Condition._check` used to return without
    defusing late failures, so an AnyOf whose losing member later
    failed raised the member's exception from the event loop.
    """
    env = Environment()
    loser = env.event()
    got = []

    def proc():
        winner = env.timeout(5, value="won")
        res = yield env.any_of([winner, loser])
        got.append((env.now, list(res)))

    def late_failer():
        yield env.timeout(10)
        loser.fail(RuntimeError("late failure"))

    env.process(proc())
    env.process(late_failer())
    env.run()  # pre-fix: raised RuntimeError("late failure")
    assert got == [(5, ["won"])]
    assert env.now == 10


def test_all_of_second_failure_after_condition_failed_is_defused():
    env = Environment()
    a = env.event()
    b = env.event()
    caught = []

    def proc():
        try:
            yield env.all_of([a, b])
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(1)
        a.fail(RuntimeError("first"))
        yield env.timeout(1)
        b.fail(RuntimeError("second"))

    env.process(proc())
    env.process(failer())
    env.run()  # pre-fix: raised RuntimeError("second")
    assert caught == ["first"]


def test_interrupt_thrown_into_waiting_process():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def interrupter(p):
        yield env.timeout(4)
        p.interrupt(cause="wakeup")

    p = env.process(sleeper())
    env.process(interrupter(p))
    env.run()
    assert log == [(4, "wakeup")]


def test_a_ticket_keeps_the_place_it_was_made_at():
    """A Ticket's ``(time, seq)`` is taken when it is made: scheduled
    after a later-made event due at the same time, it still pops first;
    never scheduled, it costs no pop."""
    env = Environment()
    order = []
    first = Ticket(env, 5.0, "first")
    unused = Ticket(env, 5.0)
    env.timeout(5.0).callbacks = [lambda ev: order.append("timeout")]
    first.schedule([lambda ev: order.append(ev.value)])
    env.run()
    assert order == ["first", "timeout"]
    assert env.events_executed == 2 and unused.callbacks is None


def test_interrupt_finished_process_is_error():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_process_exception_propagates_to_waiter():
    env = Environment()
    caught = []

    def bad():
        yield env.timeout(1)
        raise KeyError("broken")

    def parent():
        try:
            yield env.process(bad())
        except KeyError:
            caught.append(env.now)

    env.process(parent())
    env.run()
    assert caught == [1]


def test_yield_non_event_raises():
    env = Environment()

    def bad():
        # The engine's non-Event-yield guard is the subject under test.
        yield 42  # repro-lint: disable=P1

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_peek_and_step():
    env = Environment()
    env.process(iter([env.timeout(5)]).__iter__() if False else _gen(env))
    assert env.peek() == 0  # process-init event
    while env.peek() != float("inf"):
        env.step()
    assert env.now == 5


def _gen(env):
    yield env.timeout(5)


def test_step_empty_queue_is_error():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_nested_processes_compose():
    env = Environment()
    trace = []

    def leaf(tag, d):
        yield env.timeout(d)
        trace.append(tag)
        return d

    def mid():
        a = yield env.process(leaf("a", 2))
        b = yield env.process(leaf("b", 3))
        return a + b

    def top():
        total = yield env.process(mid())
        trace.append(total)

    env.process(top())
    env.run()
    assert trace == ["a", "b", 5]
    assert env.now == 5


def test_determinism_same_structure_same_trace():
    def build_and_run():
        env = Environment()
        order = []

        def worker(i):
            for k in range(3):
                yield env.timeout(1 + (i % 2))
                order.append((env.now, i, k))

        for i in range(4):
            env.process(worker(i))
        env.run()
        return order

    assert build_and_run() == build_and_run()
