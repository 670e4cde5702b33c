"""Quiet packets: the RDMA data packets before a stream's last fly with
no ``Packet`` and no flight, yet every counter they fed ends where it
did when each one flew.

The literals were taken with every packet flown: a traced rendezvous
ping-pong's packet and routing counters in each Fig. 4 mode, and an
rget ping-pong under a memory-FIFO fault plan, which never touches the
RDMA data, so its packets go quiet there too.
"""

import dataclasses

import pytest

from repro.bgq import BGQMachine
from repro.faults import FaultPlan, FaultRates
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
def test_traced_rendezvous_keeps_every_counter(mode, nbytes, trips):
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


#: Drops and dups on the memory-FIFO packets; RDMA data is never faulted.
MEMFIFO_FAULTS = FaultPlan(link=FaultRates(drop=0.02, duplicate=0.05), seed=3)


def test_rdma_data_goes_quiet_under_a_memfifo_fault_plan():
    """An 8 KB rget ping-pong under faults: its RDMA data goes quiet,
    and the final sim time, drops, dups and each node's
    ``packets_received`` are those taken with every packet flown."""
    config = dataclasses.replace(FIG4_MODES["SMP"], fault_plan=MEMFIFO_FAULTS)
    env = Environment()
    machine = BGQMachine(env, config.nnodes)
    trips = 6
    inst = build_pingpong(config, 8192, trips, 0, config.pes_per_node, env=env, machine=machine)
    run_instance(inst)
    stats = machine.network.fault.stats
    assert (repr(env.now), stats.dropped, stats.duplicated,
            [machine.node(n).mu.packets_received for n in range(config.nnodes)]
            ) == ("280645.161600001", 1, 6, [129, 130])
    # 1,729 events with every packet flown, less one flight per quiet
    # packet: 15 of each of the 2 * trips rgets' 16.
    assert env.events_executed == 1729 - 2 * trips * 15
