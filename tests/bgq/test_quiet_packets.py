"""Quiet packets: the RDMA data packets before a stream's last fly with
no ``Packet`` and no flight, yet every counter they fed ends where it
did when each one flew.

The literals were taken with every packet flown: a traced rendezvous
ping-pong's packet and routing counters in each Fig. 4 mode, and an
rget ping-pong under a fault plan that also hits RDMA data, where no
packet may go quiet because the injector decides each packet's fate.
"""

import dataclasses

import pytest

from repro.bgq import BGQMachine
from repro.bgq.network import RDMA_DATA, TorusNetwork
from repro.faults import FaultInjector, FaultPlan, FaultRates
from repro.harness.pingpong import FIG4_MODES
from repro.harness.workloads import build_pingpong, run_instance
from repro.sim import Environment

#: (mode, bytes, trips) -> final sim time, events with every packet
#: flown, and the ``mu.packets_received``, ``hpm.torus.routes`` and
#: ``hpm.torus.hops`` trace counters (two nodes: one hop a route).
TRACED = {
    ("non-SMP", 8192, 4): ("147818.93333333332", 854, 151, 151, 151),
    ("non-SMP", 131072, 2): ("594758.1333333331", 3302, 1035, 1035, 1035),
    ("SMP", 8192, 4): ("156198.56320000012", 878, 151, 151, 151),
    ("SMP", 131072, 2): ("600291.772799999", 3326, 1035, 1035, 1035),
    ("SMP+commthread", 8192, 4): ("160916.18186666694", 990, 151, 151, 151),
    ("SMP+commthread", 131072, 2): ("602573.1098666652", 3374, 1035, 1035, 1035),
}


@pytest.mark.parametrize("mode,nbytes,trips", sorted(TRACED))
def test_traced_rendezvous_keeps_every_counter(monkeypatch, mode, nbytes, trips):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    config = dataclasses.replace(FIG4_MODES[mode], trace=True)
    inst = build_pingpong(config, nbytes, trips, 0, config.pes_per_node)
    run_instance(inst)
    tracer = inst.env.tracer
    tracer.finish()
    now, flown_events, *counters = TRACED[(mode, nbytes, trips)]
    assert repr(inst.env.now) == now
    assert [tracer.counters[name] for name in
            ("mu.packets_received", "hpm.torus.routes", "hpm.torus.hops")] == counters
    # Each of the 2 * trips rgets streams nbytes / 512 packets, and all
    # but its last are quiet: one flight fewer each.
    quiet = 2 * trips * (nbytes // 512 - 1)
    assert inst.env.events_executed == flown_events - quiet


#: Drops and dups on memory-FIFO and RDMA data packets alike.
RDMA_FAULTS = FaultPlan(
    link=FaultRates(drop=0.02, duplicate=0.05), kinds=("memfifo", "rdma-data"), seed=0
)
#: Final sim time, events, drops, dups and each node's packets_received.
FAULTED = ("280645.161600001", 1716, 6, 19, [131, 136])


def faulted_rget_pingpong():
    config = dataclasses.replace(FIG4_MODES["SMP"], fault_plan=RDMA_FAULTS)
    env = Environment()
    machine = BGQMachine(env, config.nnodes)
    inst = build_pingpong(config, 8192, 6, 0, config.pes_per_node, env=env, machine=machine)
    run_instance(inst)
    stats = machine.network.fault.stats
    return (repr(env.now), env.events_executed, stats.dropped, stats.duplicated,
            [machine.node(n).mu.packets_received for n in range(config.nnodes)])


def test_no_packet_goes_quiet_under_faults():
    assert faulted_rget_pingpong() == FAULTED


def test_a_packet_gone_quiet_under_faults_turns_the_pin_red(monkeypatch):
    """Seeded defect, applied here and never in src/: RDMA data packets
    before their stream's last go quiet although a fault injector is
    attached, and skip its decision.  The pin must see it."""
    inject, on_route = TorusNetwork.inject, FaultInjector.on_route

    def inject_quietly(self, src, dst, nbytes, packet=None, wait=False):
        if packet is not None and packet.kind == RDMA_DATA and not packet.is_last:
            packet.message.quiet += 1
            packet = None
        return inject(self, src, dst, nbytes, packet, wait)

    monkeypatch.setattr(TorusNetwork, "inject", inject_quietly)
    monkeypatch.setattr(FaultInjector, "on_route", lambda self, packet, route: (
        None if packet is None else on_route(self, packet, route)))
    assert faulted_rget_pingpong() != FAULTED
