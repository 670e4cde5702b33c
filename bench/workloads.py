"""The four workloads: what one op is, and how its result is checked.

Every workload is a closed loop of identical ops, one in flight at a time.
``--seed`` is the only input: it seeds ``build_system`` (and, for the
ping-pong sweep, draws the payload sizes inside their protocol classes), so
the program only ever sees generated inputs.  An op builds its machine,
runtime and application from scratch, runs the engine, and reduces the
simulated observables to a checksum — build, run and verify are all inside
the timed op, because a user pays for all three.

An op returns ``{"checksum", "events", "sim_us", "windows"}``.  The
checksum covers only *event-independent* simulated observables (clocks,
step boundaries, round-trip sums, energies), so an event diet keeps it;
``events`` and ``windows`` are exact counts recorded beside it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
from typing import Any, Callable, Dict, List, Tuple

from repro.bgq.params import CYCLES_PER_US
from repro.charm import Charm
from repro.converse import RunConfig
from repro.harness import isogate, servebench, shardbench
from repro.harness.pingpong import FIG4_MODES, pingpong_run
from repro.namd import system as namd_system
from repro.namd.charm_app import NamdCharm
from repro.serve import DONE, EnvTask, JobService, JobSpec
from repro.serve.job import result_checksum

from .spans import NULL

Result = Dict[str, Any]


def build_namd(seed: int, n_atoms: int, nnodes: int, workers: int,
               comm_threads: int, trace: bool = False) -> Tuple[Charm, NamdCharm]:
    """The Fig. 3 many-to-many PME mini-NAMD (one step), ready to run.

    Same construction as ``benchgate.bench_fig3_m2m``: the short 7.5 A
    cutoff puts the miniature run in the paper's fine-grained regime.
    """
    spec = dataclasses.replace(namd_system.APOA1, cutoff=7.5)
    system = namd_system.build_system(
        n_atoms, spec_like=spec, temperature=0.003, bond_fraction=0.0, seed=seed
    )
    charm = Charm(RunConfig(
        nnodes=nnodes, workers_per_process=workers,
        comm_threads_per_process=comm_threads, trace=trace,
    ))
    app = NamdCharm(charm, system, n_steps=1, pme_every=1, use_m2m_pme=True, dt=0.004)
    return charm, app


def namd_result(charm: Charm, app: NamdCharm) -> Result:
    env = charm.env
    return {
        "checksum": result_checksum({
            "final": repr(env.now),
            "steps": [repr(t) for t, _ in app.step_log],
            "kinetic": [repr(ke) for _, ke in app.step_log],
        }),
        "events": env.events_executed,
        "sim_us": env.now / CYCLES_PER_US,
        "windows": 0,
    }


class Workload:
    """One workload: fixtures made in :meth:`setup`, then identical ops."""

    name = ""
    #: per-scale sizes; "tiny" exists only for the smoke test
    sizes: Dict[str, Dict[str, Any]] = {}
    #: name of the independent oracle :meth:`setup` computes, if any
    oracle = ""

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.size = self.sizes[scale]

    def setup(self) -> None:
        """Build fixtures and cross-oracles (part of ``setup_s``)."""

    def oracle_ok(self, result: Result) -> bool:
        """Does ``result`` (the last op's) agree with the set-up oracle?"""
        return True

    def op(self, spans=NULL) -> Result:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` opened."""


class PingpongSweep(Workload):
    """One Fig. 4 sweep: three run modes x four message sizes."""

    name = "pingpong_sweep"
    sizes = {
        "full": {"nbytes": (32, 512, 8192, 131072), "trips": (120, 120, 40, 5)},
        "tiny": {"nbytes": (32, 8192), "trips": (4, 3)},
    }

    def setup(self) -> None:
        # Each size is its protocol class's representative less a
        # seed-drawn 0-24 B: the class (immediate / single packet /
        # rendezvous) and the packet count never change, the inputs do.
        rng = random.Random(self.seed)
        self.legs = [
            (nbytes - 8 * rng.randrange(4), trips)
            for nbytes, trips in zip(self.size["nbytes"], self.size["trips"])
        ]

    def op(self, spans=NULL) -> Result:
        observables: Dict[str, Any] = {}
        events = 0
        sim_cycles = 0.0
        for mode, config in FIG4_MODES.items():
            for nbytes, trips in self.legs:
                run = pingpong_run(config, nbytes, trips=trips)
                observables[f"{mode}/{nbytes}"] = [
                    repr(run["sim_time"]), repr(float(sum(run["rtts"])))
                ]
                events += run["events"]
                sim_cycles += run["sim_time"]
        with spans.span("verify:bench.checksum"):
            checksum = result_checksum(observables)
        return {"checksum": checksum, "events": events,
                "sim_us": sim_cycles / CYCLES_PER_US, "windows": 0}


class PmeM2M(Workload):
    """One step of the Fig. 3 many-to-many PME mini-NAMD."""

    name = "pme_m2m"
    sizes = {
        "full": dict(n_atoms=500, nnodes=4, workers=2, comm_threads=2),
        "tiny": dict(n_atoms=64, nnodes=2, workers=1, comm_threads=1),
    }

    def op(self, spans=NULL, trace: bool = False) -> Result:
        charm, app = build_namd(self.seed, trace=trace, **self.size)
        app.run()
        with spans.span("verify:bench.checksum"):
            return namd_result(charm, app)


class ShardM2M(Workload):
    """The same m2m PME step on twice the nodes, over in-process shards."""

    name = "shard_m2m"
    sizes = {
        "full": dict(n_atoms=500, nnodes=8, workers=2, comm_threads=2, nshards=4),
        "tiny": dict(n_atoms=64, nnodes=4, workers=1, comm_threads=1, nshards=2),
    }
    oracle = "sharded_eq_serial"

    def _observables(self, sim_time: float, step_times) -> str:
        return result_checksum({
            "final": repr(sim_time), "steps": [repr(t) for t in step_times],
        })

    def serial_op(self) -> Result:
        """The same machine on the serial engine: the sharded run's oracle."""
        size = {k: v for k, v in self.size.items() if k != "nshards"}
        charm, app = build_namd(self.seed, **size)
        app.run()
        return {
            "checksum": self._observables(
                charm.env.now, [t for t, _ in app.step_log]),
            "events": charm.env.events_executed,
        }

    def setup(self) -> None:
        self.serial = self.serial_op()

    def oracle_ok(self, result: Result) -> bool:
        return result["checksum"] == self.serial["checksum"]

    def op(self, spans=NULL) -> Result:
        s = self.size
        run = shardbench.run_sharded_namd(
            True, 1, s["n_atoms"], s["nnodes"], s["workers"], s["comm_threads"],
            s["nshards"], seed=self.seed,
        )
        with spans.span("verify:bench.checksum"):
            checksum = self._observables(run["sim_time"], run["step_times"])
        return {"checksum": checksum, "events": run["events"],
                "sim_us": run["sim_time"] / CYCLES_PER_US,
                "windows": run["windows"]}


class ServeMix(Workload):
    """servebench's job mix through one long-lived ``JobService``."""

    name = "serve_mix"
    sizes = {
        "full": dict(scale="full", copies=2, workers=4),
        "tiny": dict(scale="tiny", copies=1, workers=2),
    }
    oracle = "served_eq_solo"

    def job_mix(self, service) -> List[Tuple[str, Callable[[JobSpec], Any]]]:
        """servebench's (name, build) pairs, the mini-NAMD jobs re-seeded."""
        def namd_build(name: str, use_m2m: bool):
            def build(spec: JobSpec) -> EnvTask:
                inst = isogate.build_namd_instance(
                    name, use_m2m_pme=use_m2m, seed=self.seed)
                return EnvTask(inst.env, inst.done, on_start=inst.start,
                               on_stop=inst.stop, result_fn=inst.result, label=name)
            return build

        reseeded = {"namd/std-PME": False, "namd/m2m-PME": True}
        return [
            (name, namd_build(name, reseeded[name]) if name in reseeded else build)
            for name, build in servebench.serve_workloads(self.size["scale"], service)
        ]

    def setup(self) -> None:
        # Solo oracle: each job alone through run(until=done), model jobs
        # uncached — a served checksum may differ only by interference.
        self.solo = servebench.solo_checksums(self.job_mix(None))
        self.loop = asyncio.new_event_loop()
        self.service = JobService(workers=self.size["workers"])
        self.mix = self.job_mix(self.service)
        self.loop.run_until_complete(self._start())
        self.jobs: List[Any] = []  # the last op's jobs, for the serve ladder

    async def _start(self) -> None:
        self.service.start()

    def oracle_ok(self, result: Result) -> bool:
        return all(job.state == DONE and job.checksum == self.solo[job.spec.name]
                   for job in self.jobs)

    async def _batch(self, spans) -> List[Any]:
        jobs = []
        for copy in range(self.size["copies"]):
            for i, (name, build) in enumerate(self.mix):
                k = copy * len(self.mix) + i
                jobs.append(self.service.submit(JobSpec(
                    name=name,
                    build=spans.wrap(build, "build:serve.task"),
                    priority=servebench.PRIORITY_CYCLE[k % len(servebench.PRIORITY_CYCLE)],
                    slice_events=servebench.SLICE_CYCLE[k % len(servebench.SLICE_CYCLE)],
                    stream_every=2,
                )))
        await self.service.join(*(job.id for job in jobs))
        return jobs

    def op(self, spans=NULL) -> Result:
        self.jobs = jobs = self.loop.run_until_complete(self._batch(spans))
        with spans.span("verify:bench.checksum"):
            observables: Dict[str, Any] = {}
            events = 0
            sim_cycles = 0.0
            for i, job in enumerate(jobs):
                if job.state != DONE:
                    raise RuntimeError(f"job {job.id}: {job.state} {job.error}")
                result = dict(job.result)
                events += int(result.pop("events", 0))
                result.pop("windows", None)
                sim_cycles += float(result.get("now", 0.0))
                observables[f"{i}:{job.spec.name}"] = result
            checksum = result_checksum(observables)
        return {"checksum": checksum, "events": events,
                "sim_us": sim_cycles / CYCLES_PER_US, "windows": 0}

    def close(self) -> None:
        self.loop.run_until_complete(self.service.close())
        self.loop.close()


WORKLOADS = {cls.name: cls for cls in (PingpongSweep, PmeM2M, ShardM2M, ServeMix)}
