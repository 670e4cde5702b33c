"""Counter accumulation in the unified tracer."""

import pytest

pytestmark = pytest.mark.trace

from repro.sim import Environment
from repro.trace import Tracer


def test_counter_accumulates():
    tr = Tracer(Environment())
    tr.count("msgs")
    tr.count("msgs")
    tr.count("msgs", 3)
    assert tr.get("msgs") == 5
    assert tr.counters == {"msgs": 5}


def test_counter_default_zero():
    tr = Tracer(Environment())
    assert tr.get("never") == 0
    assert tr.get("never", default=7) == 7


def test_counter_float_increments():
    tr = Tracer(Environment())
    tr.count("bytes", 0.5)
    tr.count("bytes", 1.25)
    assert tr.get("bytes") == pytest.approx(1.75)


def test_per_track_breakdown():
    tr = Tracer(Environment())
    tr.count("msgs", track=0)
    tr.count("msgs", 2, track=1)
    tr.count("msgs")  # global only
    assert tr.get("msgs") == 4
    assert tr.track_counters["msgs"] == {0: 1, 1: 2}


def test_disabled_tracer_records_nothing():
    env = Environment()
    tr = Tracer(env, enabled=False)
    tr.count("msgs", 10, track=3)
    tr.begin(0, "pme")
    tr.record(0, "comm", 0, 5)
    tr.end(0)
    with tr.span(1, "fft"):
        pass
    assert tr.counters == {}
    assert tr.track_counters == {}
    assert tr.spans == []


def test_runtime_counters_flow_end_to_end():
    """A tiny Converse run populates the cross-layer counter catalogue."""
    from repro.converse import ConverseRuntime, RunConfig
    from repro.converse.messages import ConverseMessage

    env = Environment()
    rt = ConverseRuntime(env, RunConfig(nnodes=2, workers_per_process=2, trace=True))
    done = env.event()

    def pong(pe, msg):
        done.succeed()
        return None

    def ping(pe, msg):
        yield from pe.send(rt.config.pes_per_node, hid_pong, 256, None)

    hid_pong = rt.register_handler(pong)
    hid_ping = rt.register_handler(ping)
    rt.pes[0].local_q.append(ConverseMessage(hid_ping, 0, None, 0, 0))
    rt.run_until(done)
    tr = rt.tracer
    tr.finish()  # harvests engine-maintained counters (engine.events)
    assert tr.get("converse.msgs_sent") == 1
    assert tr.get("converse.bytes_sent") == 256
    assert tr.get("converse.msgs_delivered") == 1
    assert tr.get("pami.msgs_sent") == 1
    assert tr.get("mu.packets_injected") >= 1
    assert 1 <= tr.get("mu.packets_received") <= tr.get("mu.packets_injected")
    assert tr.get("engine.events") > 0
    assert tr.get("sched.polls") > 0
    # Per-track attribution: the send was charged to PE 0.
    assert tr.track_counters["converse.msgs_sent"] == {0: 1}


def test_tracing_disabled_leaves_components_unwired():
    from repro.converse import ConverseRuntime, RunConfig

    env = Environment()
    rt = ConverseRuntime(env, RunConfig(nnodes=1, workers_per_process=2))
    assert rt.tracer is None
    assert env.tracer is None
    assert all(ct.tracer is None for p in rt.processes for ct in p.comm_threads)
    # Native component statistics exist regardless of tracing.
    assert all(pe.queue.enqueues == 0 for pe in rt.pes)
    assert all(node.mu.packets_received == 0 for node in rt.machine.nodes)
