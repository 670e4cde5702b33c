"""Golden pins for the shared workload builders (harness/workloads.py).

The serve gate is self-referential — its solo, interleaved and served
sides run the same builder, so a builder edit that
moves the trajectory moves both sides and the gate stays green.  These
literals were captured at the commit *before* the builders were
unified (ping-pong x3 and mini-NAMD x4 pasted copies): every way of
driving a workload must still land on exactly the pre-refactor
checksum.

The checksum is a digest of simulated observables only; ``events`` is
pinned *beside* it.  The six solo/served literals therefore moved once,
when the event count left the hash — ``PARENT_DIGEST`` keeps the old
values and a test proves the move was nothing but that.  The ``events``
column is regenerated whenever the simulator deliberately schedules
fewer events at identical simulated times (the compute-chunk wait, the
listener-less membership change, the wakeup parity event, the
cancelled ends of re-keyed chunks and the per-packet flight and
watcher processes are gone); a checksum literal never is.
"""

import asyncio
import hashlib
import json

import pytest

from repro.bgq.core import Core
from repro.converse import RunConfig
from repro.harness import isogate, servebench, shardbench
from repro.harness.benchgate import _checksum
from repro.harness.pingpong import FIG4_MODES, pingpong_run
from repro.harness.workloads import (
    build_pingpong,
    namd_run,
    namd_sim_times,
    pingpong_sim_times,
    run_instance,
)
from repro.serve import EnvTask, JobService, JobSpec
from repro.serve.job import result_checksum

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


def serve_job(build):
    """One job through a fresh two-worker JobService; the finished Job."""

    async def go():
        service = JobService(workers=2)
        service.start()
        job = service.submit(JobSpec(name="golden", build=build, slice_events=96))
        await service.join()
        await service.close()
        return job

    return asyncio.run(go())


def served_job(workload):
    def build(spec):
        inst = _instance(workload)
        return EnvTask(inst.env, inst.done, on_start=inst.start, on_stop=inst.stop,
                       result_fn=inst.result, label=spec.name)

    return serve_job(build)


def served(workload):
    job = served_job(workload)
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
    ("pingpong", "serial"): (SERIAL_PINGPONG, 605),
    ("pingpong", "solo"): ("049518b6790e", 605),
    ("pingpong", "shards1"): (SERIAL_PINGPONG, 593),
    ("pingpong", "shards2"): (SERIAL_PINGPONG, 605),
    ("pingpong", "served"): ("049518b6790e", 605),
    ("namd-std", "serial"): (SERIAL_STD, 5537),
    ("namd-std", "solo"): ("9adca0637ee1", 12370),
    ("namd-std", "shards1"): (SERIAL_STD, 4967),
    ("namd-std", "shards2"): (SERIAL_STD, 5537),
    ("namd-std", "served"): ("9adca0637ee1", 12370),
    ("namd-m2m", "serial"): (SERIAL_M2M, 8874),
    ("namd-m2m", "solo"): ("e40575d6008b", 15643),
    ("namd-m2m", "shards1"): (SERIAL_M2M, 8376),
    ("namd-m2m", "shards2"): (SERIAL_M2M, 8874),
    ("namd-m2m", "served"): ("e40575d6008b", 15643),
}


@pytest.mark.parametrize("workload,driver", sorted(GOLDEN))
def test_builders_reproduce_the_pre_refactor_trajectory(workload, driver):
    assert DRIVERS[driver](workload) == GOLDEN[(workload, driver)]


#: The solo/served digests from when ``events`` was hashed into them,
#: with the event count each one hashed.
PARENT_DIGEST = {
    "pingpong": ("a3f8951eb02f", 1534),
    "namd-std": ("e90809a6726c", 26047),
    "namd-m2m": ("78f9bc28f300", 33520),
}


def _sha(payload):
    """The digest spelled out, so the proof does not lean on the rule it checks."""
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@pytest.mark.parametrize("workload", sorted(PARENT_DIGEST))
def test_new_solo_and_served_literals_are_the_old_payload_minus_events(workload):
    """Every observable is still the one the old digest hashed (put the
    old count back and the old digest comes out); the new literal is
    those observables without ``events``."""
    old_digest, old_events = PARENT_DIGEST[workload]
    inst = _instance(workload)
    run_instance(inst)
    solo_payload = {
        "now": repr(inst.env.now),
        "events": inst.env.events_executed,
        **inst.result(),
    }
    for payload in (solo_payload, served_job(workload).result):
        new = GOLDEN[(workload, "solo")][0]
        assert payload.pop("events") == GOLDEN[(workload, "solo")][1]
        assert _sha({**payload, "events": old_events}) == old_digest
        assert _sha(payload) == result_checksum(payload) == new
    assert inst.checksum() == new


def test_an_event_diet_lowers_counts_and_moves_no_checksum(monkeypatch):
    """Seeded defect, applied here and never in src/: undo one slice of
    the event diet, so a core-membership change is scheduled even when
    nobody listens.  Same simulated times, more events — all 15 cells
    must say exactly that: the ``events`` column catches it, no
    checksum moves."""

    def notify_change(self):
        self._rates = None
        attached, self._attached = self._attached, []
        self._pending += 1
        ev = self.env.event()
        ev.callbacks = [self._rekey]
        ev.succeed(attached)

    monkeypatch.setattr(Core, "_notify_change", notify_change)
    fattened = {cell: DRIVERS[cell[1]](cell[0]) for cell in GOLDEN}
    for cell, (checksum, events) in GOLDEN.items():
        assert fattened[cell][0] == checksum, cell
        assert fattened[cell][1] > events, cell
    assert [fattened[(w, "serial")][1] for w in ("pingpong", "namd-std", "namd-m2m")] \
        == [1177, 7153, 12504]


def test_served_sharded_pingpong_has_the_serial_digest():
    """One workload, one digest: serve-gate's sharded job equals the same
    ping-pong on the serial engine, whatever the shard count."""
    nnodes, nbytes, trips = 4, 512, 6
    config = RunConfig(nnodes=nnodes, workers_per_process=2)
    inst = build_pingpong(
        config, nbytes, trips, 0, (nnodes - 1) * config.pes_per_node
    )
    run_instance(inst)
    assert inst.checksum() == "572981d887aa"
    for nshards in (1, 2, 4):
        job = serve_job(
            servebench._sharded_task_build(nnodes, nshards, nbytes, trips)
        )
        assert job.checksum == inst.checksum(), nshards
        assert job.result["windows"] > 0
