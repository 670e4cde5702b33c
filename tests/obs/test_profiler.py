"""Profiler contract: deterministic, bounded, correctly attributed.

The two load-bearing claims (docs/OBSERVABILITY.md):

1. Profiling never perturbs the simulation — sim times and event
   counts are bit-identical with and without a ProfileSession.
2. The accumulator stays bounded by *code*, not events: per-event
   callable instances degrade to their class, process names aggregate
   across ranks.
"""

import pytest

from repro.analysis.sanitizer import SanitizerError, sanitized
from repro.obs import EngineProfiler, Profile, ProfileSession, owner_name
from repro.obs import profiler as profiler_mod
from repro.obs.profiler import _norm
from repro.sim import Environment
from repro.sim import engine as engine_mod


def run_workload(env, n=200):
    """A deterministic mix of zero-delay and timed events."""
    log = []

    def worker(env, k):
        for i in range(n):
            if i % 3 == 0:
                yield env.timeout(0.0)
            else:
                yield env.timeout(0.5 + k)
            log.append((k, env.now))

    for k in range(3):
        env.process(worker(env, k), name=f"pe{k}")
    env.run()
    return env.now, env.events_executed, tuple(log)


def test_profiled_run_is_bit_identical():
    base = run_workload(Environment())
    with ProfileSession("t"):
        prof = run_workload(Environment())
    assert base == prof


@pytest.mark.parametrize("stride", [1, 4, 32])
def test_profiled_run_is_bit_identical_at_any_stride(stride):
    base = run_workload(Environment())
    with ProfileSession("t", stride=stride):
        prof = run_workload(Environment())
    assert base == prof


def test_event_counts_are_exact_despite_sampling():
    """Every event lands in exactly one sampled interval."""
    with ProfileSession("t", stride=7) as sess:
        env = Environment()
        run_workload(env)
    profile = sess.profile()
    assert profile.total_count == env.events_executed
    # Pop-site split also covers every event exactly once.
    pops = sum(n["deque_pops"] + n["heap_pops"] for n in profile.nodes)
    assert pops == env.events_executed


def test_sampled_shares_estimate_the_exact_shares(monkeypatch):
    """At stride 32 a site's share is its sampled events' own time scaled
    by their gaps.  Charging each sample the whole interval since the
    previous one instead gave the free no-callback events — four in
    five here — about 0.8 of a wall time they never spent."""
    clock = [0]
    monkeypatch.setattr(profiler_mod, "perf_counter_ns", lambda: clock[0])

    def expensive(_ev):
        clock[0] += 1000

    def cheap(_ev):
        clock[0] += 10

    def shares(stride):
        with ProfileSession("t", stride=stride) as sess:
            env = Environment()
        for i in range(1, 6001):
            ev = env.timeout(i)
            if i % 20 == 0:
                ev.callbacks = [expensive]
            elif i % 5 == 0:
                ev.callbacks = [cheap]
        env.run()
        profile = sess.profile()
        assert profile.total_count == env.events_executed
        return {n["owner"]: n["share"] for n in profile.nodes}

    exact, sampled = shares(1), shares(32)
    assert exact["(no-callback)"] == 0.0
    assert set(sampled) <= set(exact)
    for owner, share in exact.items():
        assert abs(sampled.get(owner, 0.0) - share) < 0.05, owner


def test_exact_mode_attributes_every_event():
    with ProfileSession("t", stride=1) as sess:
        env = Environment()
        run_workload(env)
    profile = sess.profile()
    assert profile.total_count == env.events_executed
    # In exact mode the timed share is everything but the final flush.
    assert all(n["count"] > 0 for n in profile.nodes)


def test_profiler_and_sanitizer_compose():
    """Both hooks live in the one dispatch loop, so neither hides the
    other: a sanitized run is still profiled, a profiled run is still
    checked.  (The sanitized step variant used to win and the profile
    came back empty.)"""
    base = run_workload(Environment())
    with sanitized(), ProfileSession("t", stride=7) as sess:
        env = Environment()
        assert run_workload(env) == base
    assert env._sanitize and env.profiler is not None
    profile = sess.profile()
    assert profile.total_count == env.events_executed > 0
    assert profile.nodes

    with sanitized(), ProfileSession("t", stride=1) as sess:
        env = Environment()
    env.timeout(1.0)  # pending work for the reentrant call to grab
    ev = env.event()
    ev._add_callback(lambda _ev: env.step())
    ev.succeed()
    with pytest.raises(SanitizerError, match="reentrant"):
        env.step()
    assert sess.profile().total_count == env.events_executed == 1


def test_span_range_covers_the_intervals_charged_to_a_site():
    """With a tracer attached, a site's span_first/span_last bracket the
    spans closed while its intervals were open."""
    from types import SimpleNamespace

    with ProfileSession("t", stride=1) as sess:
        env = Environment()
    env.tracer = SimpleNamespace(spans=[])

    def close_span(_ev):
        env.tracer.spans.append(object())

    quiet = env.timeout(1.0)          # closes nothing
    for delay in (2.0, 3.0):
        env.timeout(delay)._add_callback(close_span)
    env.run()
    assert quiet.processed and len(env.tracer.spans) == 2
    nodes = {n["owner"]: n for n in sess.profile().nodes}
    assert (nodes["(no-callback)"]["span_first"], nodes["(no-callback)"]["span_last"]) == (-1, -1)
    spanned = next(n for o, n in nodes.items() if "close_span" in o)
    assert (spanned["span_first"], spanned["span_last"], spanned["count"]) == (0, 1, 2)


def test_accumulator_is_bounded_by_code_not_events():
    """10x the events must not mean 10x the keys."""
    with ProfileSession("small", stride=1) as sess_small:
        run_workload(Environment(), n=50)
    with ProfileSession("big", stride=1) as sess_big:
        run_workload(Environment(), n=500)
    small = {k for p in sess_small.profilers for k in p.acc}
    big = {k for p in sess_big.profilers for k in p.acc}
    assert len(big) <= len(small) + 2


def test_owner_names_aggregate_ranks():
    with ProfileSession("t", stride=1) as sess:
        run_workload(Environment())
    profile = sess.profile()
    owners = {n["owner"] for n in profile.nodes}
    # The three pe0/pe1/pe2 processes collapse into one owner.
    assert any("pe*" in o for o in owners)
    assert not any("pe0" in o or "pe1" in o for o in owners)


def test_session_only_covers_environments_constructed_inside():
    outside = Environment()
    with ProfileSession("t") as sess:
        inside = Environment()
    after = Environment()
    assert outside.profiler is None
    assert after.profiler is None
    assert inside.profiler is sess.profilers[0]
    assert engine_mod._PROFILER_FACTORY[0] is None


def test_sessions_restore_previous_hook_when_nested():
    with ProfileSession("outer") as outer:
        with ProfileSession("inner") as inner:
            env = Environment()
        env2 = Environment()
    assert env.profiler in inner.profilers
    assert env2.profiler in outer.profilers
    assert engine_mod._PROFILER_FACTORY[0] is None


def test_session_disarms_after_exception():
    try:
        with ProfileSession("t"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert engine_mod._PROFILER_FACTORY[0] is None


def test_next_gap_is_deterministic_and_jittered():
    a = EngineProfiler(index=0, stride=8)
    b = EngineProfiler(index=0, stride=8)
    gaps_a = [a.next_gap() for _ in range(100)]
    gaps_b = [b.next_gap() for _ in range(100)]
    assert gaps_a == gaps_b
    assert all(1 <= g <= 15 for g in gaps_a)
    assert len(set(gaps_a)) > 3  # jittered, not a fixed stride
    # stride=1 is exact mode: every gap is 1.
    exact = EngineProfiler(index=0, stride=1)
    assert [exact.next_gap() for _ in range(10)] == [1] * 10


def test_sibling_profilers_sample_out_of_lockstep():
    gaps0 = [EngineProfiler(index=0, stride=8).next_gap() for _ in range(1)]
    p0 = EngineProfiler(index=0, stride=8)
    p1 = EngineProfiler(index=1, stride=8)
    assert [p0.next_gap() for _ in range(20)] != [p1.next_gap() for _ in range(20)]
    assert gaps0  # silence unused warning


def test_flush_is_idempotent():
    with ProfileSession("t", stride=1) as sess:
        env = Environment()
        run_workload(env, n=10)
    prof = sess.profilers[0]
    prof.flush()
    count_once = prof.total_count()
    prof.flush()
    assert prof.total_count() == count_once == env.events_executed


def test_norm_collapses_digit_runs():
    assert _norm("pe3") == "pe*"
    assert _norm("mu0-ififo12") == "mu*-ififo*"
    assert _norm("pkt-1->5") == "pkt-*->*"
    assert _norm("plain") == "plain"


def test_owner_name_shapes():
    assert owner_name(None) == "(no-callback)"

    class Waker:
        def __call__(self, ev):
            pass

    assert owner_name(Waker) == "Waker"

    class Proc:
        name = "pe7"

        def resume(self, ev):
            pass

    assert owner_name(Proc().resume) == "Proc.resume:pe*"

    def free_fn(ev):
        pass

    assert "free_fn" in owner_name(free_fn)


def test_profile_roundtrip_and_coverage():
    with ProfileSession("t", stride=1) as sess:
        run_workload(Environment())
    profile = sess.profile()
    data = profile.to_json()
    back = Profile.from_json(data)
    assert back.to_json() == data
    assert 0.0 < profile.coverage(10) <= 1.0
    assert profile.coverage(len(profile.nodes)) == pytest.approx(1.0)
    assert profile.top(3) == profile.nodes[:3]


def test_profile_from_json_rejects_unknown_schema():
    with pytest.raises(ValueError):
        Profile.from_json({"schema": 99, "nodes": []})
