"""Edge-case coverage for the simulation kernel."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, Event, SimulationError
from repro.sim.engine import _ConditionValue


def test_condition_value_ordering_and_todict():
    env = Environment()
    t1 = env.timeout(1, value="a")
    t2 = env.timeout(2, value="b")
    got = []

    def proc():
        res = yield env.all_of([t1, t2])
        got.append(res.todict())

    env.process(proc())
    env.run()
    assert got[0] == {t1: "a", t2: "b"}
    assert list(got[0].values()) == ["a", "b"]


def test_any_of_with_failed_event_propagates():
    env = Environment()
    bad = env.event()
    caught = []

    def proc():
        try:
            yield env.any_of([bad, env.timeout(10)])
        except RuntimeError:
            caught.append(env.now)

    def failer():
        yield env.timeout(1)
        bad.fail(RuntimeError("boom"))

    env.process(proc())
    env.process(failer())
    env.run()
    assert caught == [1]


def test_all_of_with_pre_processed_events():
    env = Environment()
    t = env.timeout(0, value="x")
    env.run()  # process the timeout fully
    got = []

    def proc():
        res = yield env.all_of([t])
        got.append(list(res))

    env.process(proc())
    env.run()
    assert got == [["x"]]


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_value_of_untriggered_event_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.event().value


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # not a generator


def test_environment_initial_time():
    env = Environment(initial_time=100.0)
    assert env.now == 100.0
    ticks = []

    def proc():
        yield env.timeout(5)
        ticks.append(env.now)

    env.process(proc())
    env.run()
    assert ticks == [105.0]


def test_active_process_tracking():
    env = Environment()
    seen = []

    def proc():
        seen.append(env.active_process)
        yield env.timeout(1)

    p = env.process(proc())
    assert env.active_process is None
    env.run()
    assert seen == [p]
    assert env.active_process is None
