"""Golden pins for the shared workload builders (harness/workloads.py).

The iso and serve gates are self-referential — their solo and
interleaved/served sides run the same builder, so a builder edit that
moves the trajectory moves both sides and the gate stays green.  These
literals were captured at the commit *before* the builders were
unified (ping-pong x3 and mini-NAMD x4 pasted copies): every way of
driving a workload must still land on exactly the pre-refactor
``(checksum, events_executed)``.
"""

import asyncio

import pytest

from repro.harness import isogate, shardbench
from repro.harness.benchgate import _checksum
from repro.harness.pingpong import FIG4_MODES, pingpong_run
from repro.harness.workloads import (
    namd_run,
    namd_sim_times,
    pingpong_sim_times,
    run_instance,
)
from repro.serve import EnvTask, JobService, JobSpec

CONFIG = FIG4_MODES["SMP+commthread"]
NBYTES, TRIPS = 512, 6
NAMD = (1, 256, 2, 1, 1)  # n_steps, n_atoms, nnodes, workers, comm_threads


def _instance(workload):
    if workload == "pingpong":
        return isogate.build_pingpong_instance(workload, CONFIG, NBYTES, trips=TRIPS)
    return isogate.build_namd_instance(workload, use_m2m_pme=workload == "namd-m2m")


def serial(workload):
    if workload == "pingpong":
        run = pingpong_run(CONFIG, NBYTES, trips=TRIPS)
        return _checksum(pingpong_sim_times(run)), run["events"]
    run = namd_run(workload == "namd-m2m", *NAMD)
    return _checksum(namd_sim_times(run)), run["events"]


def solo(workload):
    inst = _instance(workload)
    run_instance(inst)
    return inst.checksum(), inst.env.events_executed


def sharded(workload, nshards):
    if workload == "pingpong":
        run = shardbench.run_sharded_pingpong(CONFIG, NBYTES, nshards, trips=TRIPS)
        return _checksum(pingpong_sim_times(run)), run["events"]
    run = shardbench.run_sharded_namd(workload == "namd-m2m", *NAMD, nshards)
    return _checksum(namd_sim_times(run)), run["events"]


def served(workload):
    def build(spec):
        inst = _instance(workload)
        return EnvTask(inst.env, inst.done, on_start=inst.start, on_stop=inst.stop,
                       result_fn=inst.result, label=spec.name)

    async def go():
        service = JobService(workers=2)
        service.start()
        job = service.submit(JobSpec(name="golden", build=build, slice_events=96))
        await service.join()
        await service.close()
        return job

    job = asyncio.run(go())
    return job.checksum, job.result["events"]


DRIVERS = {
    "serial": serial,
    "solo": solo,
    "shards1": lambda w: sharded(w, 1),
    "shards2": lambda w: sharded(w, 2),
    "served": served,
}

SERIAL_PINGPONG = "1d951ce624045d85d412bc781fc39af1eef82dbcc283bf1191c1642056cea4fe"
SERIAL_STD = "f33b5a33a722e4b473e20b0ecf7ba51ca3d4a42be0da328923f8299e9b43b403"
SERIAL_M2M = "5cf40d689e575605d8a8400d679d3647b3dcfc24af116cb9e06391c97041a1f5"

GOLDEN = {
    ("pingpong", "serial"): (SERIAL_PINGPONG, 1534),
    ("pingpong", "solo"): ("a3f8951eb02f", 1534),
    ("pingpong", "shards1"): (SERIAL_PINGPONG, 1498),
    ("pingpong", "shards2"): (SERIAL_PINGPONG, 1510),
    ("pingpong", "served"): ("a3f8951eb02f", 1534),
    ("namd-std", "serial"): (SERIAL_STD, 10970),
    ("namd-std", "solo"): ("e90809a6726c", 26047),
    ("namd-std", "shards1"): (SERIAL_STD, 9260),
    ("namd-std", "shards2"): (SERIAL_STD, 9830),
    ("namd-std", "served"): ("e90809a6726c", 26047),
    ("namd-m2m", "serial"): (SERIAL_M2M, 18630),
    ("namd-m2m", "solo"): ("78f9bc28f300", 33520),
    ("namd-m2m", "shards1"): (SERIAL_M2M, 17136),
    ("namd-m2m", "shards2"): (SERIAL_M2M, 17634),
    ("namd-m2m", "served"): ("78f9bc28f300", 33520),
}


@pytest.mark.parametrize("workload,driver", sorted(GOLDEN))
def test_builders_reproduce_the_pre_refactor_trajectory(workload, driver):
    assert DRIVERS[driver](workload) == GOLDEN[(workload, driver)]
