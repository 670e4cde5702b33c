"""Simulated HPM groups: filled by the Converse runtime's one harvest.

A real 2-node traced ping-pong (two comm threads per process) checks
each node's group against the component statistics it is read from,
and the trace gate's Fig. 9 configuration pins names, per-node key
order and values to the committed baseline.
"""

import json
import pathlib

import pytest

pytestmark = pytest.mark.trace

from repro.converse import ConverseRuntime, RunConfig
from repro.converse.messages import ConverseMessage
from repro.sim import Environment

BASELINES = pathlib.Path(__file__).parents[2] / "benchmarks" / "baselines"


@pytest.fixture(scope="module")
def runtime():
    env = Environment()
    rt = ConverseRuntime(env, RunConfig(
        nnodes=2, workers_per_process=2, comm_threads_per_process=2, trace=True,
    ))
    done = env.event()
    trips = []

    def pong(pe, msg):
        yield from pe.send(0, hid_ping, 2048, None)

    def ping(pe, msg):
        if len(trips) == 4:
            done.succeed()
            return
        trips.append(env.now)
        yield from pe.send(rt.config.pes_per_node, hid_pong, 2048, None)

    hid_pong = rt.register_handler(pong)
    hid_ping = rt.register_handler(ping)
    rt.pes[0].local_q.append(ConverseMessage(hid_ping, 0, None, 0, 0))
    rt.run_until(done)
    rt.tracer.finish()
    return rt


def test_collect_hpm_groups_per_node(runtime):
    hpm = runtime.tracer.hpm
    assert list(hpm) == [0, 1]
    for node, proc in zip(runtime.machine.nodes, runtime.processes):
        group = hpm[node.node_id]
        mu = node.mu
        assert group["mu.descriptors"] == mu.descriptors_processed > 0
        assert group["mu.packets_injected"] == mu.packets_injected
        assert group["mu.packets_received"] == mu.packets_received
        # High-water marks are the max over the node's FIFOs.
        assert group["mu.rfifo_occupancy_hwm"] == max(
            f.occupancy_hwm for f in mu._reception
        )
        for op, n in node.l2.op_counts.items():
            assert group.get(f"l2.{op}", 0) == n
        # The process's two comm threads sum into one group.
        assert len(proc.comm_threads) == 2
        assert group["commthread.rounds"] == sum(
            ct.advance_rounds for ct in proc.comm_threads
        )
        assert group["commthread.interrupts"] == sum(
            ct.wakeup_count for ct in proc.comm_threads
        )
        # Zero-valued hardware counters are skipped, not reported as 0.
        assert all(v for k, v in group.items() if not k.startswith("commthread."))
        assert ("l2.bounded_failed" in group) == bool(node.l2.bounded_failed)


def test_install_hpm_totals_into_counters(runtime):
    tr = runtime.tracer
    groups = list(tr.hpm.values())
    names = {name for g in groups for name in g}
    for name in names:
        values = [g.get(name, 0) for g in groups]
        # Sums across nodes, except high-water marks, which take the max.
        want = max(values) if name.endswith("_hwm") else sum(values)
        assert tr.counters.get(f"hpm.{name}", 0) == want, name
    assert any(name.endswith("_hwm") for name in names)
    # Machine-wide torus counters ride along.
    torus = runtime.machine.torus
    assert tr.counters["hpm.torus.routes"] == torus.routes_computed > 0
    assert tr.counters["hpm.torus.hops"] == torus.hops_routed


def test_finish_is_idempotent(runtime):
    tr = runtime.tracer
    counters, hpm = dict(tr.counters), {n: dict(g) for n, g in tr.hpm.items()}
    tr.finish()
    assert tr.counters == counters  # assignment, not accumulation
    assert tr.hpm == hpm


def test_traced_run_harvests_hpm():
    """The Fig. 9 gate run reproduces the committed HPM section exactly."""
    from repro.harness.timelines import run_traced_namd
    from repro.harness.tracegate import GATE_CONFIGS

    (cfg,) = [c for c in GATE_CONFIGS if c["name"] == "gate_fig9_ct"]
    tr = run_traced_namd(cfg["label"], **cfg["kwargs"]).tracer
    baseline = json.loads((BASELINES / "gate_fig9_ct.manifest.json").read_text())
    got = {str(nid): list(g.items()) for nid, g in tr.hpm.items()}
    assert got == {nid: list(g.items()) for nid, g in baseline["hpm"].items()}
    hpm_counters = {k: v for k, v in tr.counters.items() if k.startswith("hpm.")}
    assert hpm_counters == {
        k: v for k, v in baseline["counters"].items() if k.startswith("hpm.")
    }
