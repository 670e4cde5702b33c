"""Counters are harvested from component statistics at ``Tracer.finish()``."""

import pytest

pytestmark = pytest.mark.trace

from repro.sim import Environment


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
    c = tr.counters
    assert c["converse.msgs_sent"] == 1
    assert c["converse.bytes_sent"] == 256
    assert c["converse.msgs_delivered"] == 1
    assert c["pami.msgs_sent"] == 1
    assert c["mu.packets_injected"] >= 1
    assert 1 <= c["mu.packets_received"] <= c["mu.packets_injected"]
    assert c["engine.events"] > 0
    assert c["sched.polls"] > 0
    # The send was charged to PE 0, the only sender.
    assert rt.pes[0].msgs_sent == 1


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
