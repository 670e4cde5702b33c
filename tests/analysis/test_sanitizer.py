"""Dynamic sanitizer (REPRO_SANITIZE=1) behaviour.

Two properties matter: every hazard class raises :class:`SanitizerError`
when the flag is on, and a *clean* workload's trajectory is bit-identical
with the flag on or off (the checked path must never change pop order).
"""

import pytest

from repro.analysis.sanitizer import SanitizerError, sanitized
from repro.envvar import EnvVarError, env_switch
from repro.sim.engine import Environment
from repro.trace import Tracer


def _make_env():
    return Environment()


def sanitize_enabled():
    """The switch as every reader parses it."""
    return env_switch("REPRO_SANITIZE")


def test_sanitized_context_toggles_flag():
    assert not _make_env()._sanitize
    with sanitized():
        assert _make_env()._sanitize
        with sanitized(False):
            assert not _make_env()._sanitize
        assert _make_env()._sanitize
    assert not _make_env()._sanitize


@pytest.mark.parametrize("value,on", [("", False), ("0", False), ("1", True)])
def test_switch_grammar(monkeypatch, value, on):
    monkeypatch.setenv("REPRO_SANITIZE", value)
    assert _make_env()._sanitize is on


@pytest.mark.parametrize(
    "reader", [sanitize_enabled, Environment, lambda: Tracer(None)]
)
def test_unknown_switch_value_is_a_named_error_not_a_silent_off(monkeypatch, reader):
    """REPRO_SANITIZE=true used to build an unsanitized Environment."""
    monkeypatch.setenv("REPRO_SANITIZE", "true")
    with pytest.raises(EnvVarError, match=r"REPRO_SANITIZE='true'.*'0' \(off\).*'1' \(on\)"):
        reader()


def test_flag_sampled_at_construction():
    with sanitized():
        env = _make_env()
    # Constructed inside the context: stays sanitized after exit.
    assert env._sanitize
    assert not _make_env()._sanitize


def test_reentrant_step_raises():
    with sanitized():
        env = _make_env()
    env.timeout(1.0)  # pending work for the reentrant call to grab

    def reenter(_event):
        env.step()

    ev = env.event()
    ev._add_callback(reenter)
    ev.succeed()
    with pytest.raises(SanitizerError, match="reentrant"):
        env.step()


def test_reentrant_run_from_callback_raises():
    with sanitized():
        env = _make_env()

    def reenter(_event):
        env.run()

    ev = env.event()
    ev._add_callback(reenter)
    ev.succeed()
    env.timeout(1.0)
    with pytest.raises(SanitizerError, match="reentrant"):
        env.run()


def test_lost_wakeup_registration_raises():
    with sanitized():
        env = _make_env()
    ev = env.event()
    ev.succeed()
    env.run()
    assert ev.processed
    with pytest.raises(SanitizerError, match="never fire"):
        ev._add_callback(lambda e: None)


def test_lost_wakeup_not_checked_when_disabled():
    env = _make_env()
    assert not env._sanitize
    ev = env.event()
    ev.succeed()
    env.run()
    # Silently accepted (the pre-sanitizer behaviour): documents exactly
    # what hazard the sanitizer exists to surface.
    ev._add_callback(lambda e: None)
    assert ev.callbacks is not None


def test_callback_list_repopulation_raises():
    with sanitized():
        env = _make_env()
    ev = env.event()

    def repopulate(event):
        # A stale-reference bug: handler writes back into the event it
        # is being called for.  _add_callback would catch the append
        # form; direct assignment only the checked step can see.
        event.callbacks = [lambda e: None]

    ev._add_callback(repopulate)
    ev.succeed()
    with pytest.raises(SanitizerError, match="repopulated"):
        env.step()


def test_set_input_to_any_of_raises():
    with sanitized():
        env = _make_env()
        t1, t2 = env.timeout(1.0), env.timeout(2.0)
        with pytest.raises(SanitizerError, match="hash seed"):
            # The hazard itself is the subject under test here.
            env.any_of({t1, t2})  # repro-lint: disable=D3


def test_frozenset_input_to_all_of_raises():
    with sanitized():
        env = _make_env()
        t1, t2 = env.timeout(1.0), env.timeout(2.0)
        with pytest.raises(SanitizerError, match="hash seed"):
            env.all_of(frozenset((t1, t2)))  # repro-lint: disable=D3


def test_ordered_inputs_accepted():
    with sanitized():
        env = _make_env()
        t1, t2 = env.timeout(1.0), env.timeout(2.0)
        cond = env.any_of([t1, t2])
        env.run(until=cond)
    assert env.now == 1.0


def _workload(env, log):
    """A mixed heap/deque workload exercising every scheduling shape."""

    def worker(wid):
        for i in range(5):
            yield env.timeout(0.5 * (wid + 1))
            log.append((env.now, wid, i))
            ev = env.event()
            ev.succeed(wid)
            got = yield ev
            assert got == wid

    def joiner():
        procs = [env.process(worker(w), name=f"w{w}") for w in range(3)]
        yield env.all_of(procs)
        log.append(("join", env.now))

    env.process(joiner())


def test_clean_run_trajectory_identical_with_sanitizer():
    plain_log, san_log = [], []
    env = _make_env()
    _workload(env, plain_log)
    env.run()

    with sanitized():
        env_s = _make_env()
    assert env_s._sanitize
    _workload(env_s, san_log)
    env_s.run()

    assert san_log == plain_log
    assert env_s.now == env.now
    assert env_s.events_executed == env.events_executed
