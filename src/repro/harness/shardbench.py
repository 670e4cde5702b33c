"""Sharded-engine benchmark builders and the equivalence gate core.

This module turns the gated single-process benchmarks (pingpong,
fig3_m2m, fig10_window — see :mod:`repro.harness.benchgate`) into
SPMD sharded runs: every shard constructs an identical mirror of the
application (same seeds, same construction order, same handler ids)
over a :class:`~repro.bgq.shardnet.ShardedBGQMachine` that builds only
its own block of nodes, and a :class:`~repro.sim.shard.ShardCoordinator`
advances the shard environments in conservative lockstep windows.

The point of the exercise is **bit-identical simulated time**: a
sharded run must produce exactly the ``sim_times`` observables of the
serial engine — same final clock ``repr``, same per-step boundaries —
for shards ∈ {1, 2, 4}.  :func:`gate` checks exactly that; ``make
shard-gate`` is the entry point and docs/SCALING.md the handbook.

SPMD mirror rules (violating any of these diverges the trajectory —
see docs/SCALING.md, "Determinism"):

* construct the application identically on every shard (same RNG
  seeds, same array/construction order);
* pre-register every entry method in one fixed order right after
  construction (:meth:`repro.charm.runtime.Charm.register_entries`,
  which :func:`~repro.harness.workloads.build_namd` does whenever it is
  handed a sharded machine) — handler ids ride inside payloads across
  shards;
* seed through :meth:`Charm.seed` (it skips remote PEs but still
  allocates handler ids);
* never read another shard's state outside the window barrier.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..bgq.shardnet import ReservationFabric, ShardedBGQMachine, WireShardClient
from ..converse import RunConfig
from ..sim.shard import ShardCoordinator, ShardEnvironment, run_sharded_subprocesses
from .pingpong import pingpong_run
from .workloads import (
    Instance,
    build_namd,
    build_pingpong,
    namd_run,
    namd_sim_times,
    pingpong_sim_times,
    window_sim_times,
)

__all__ = [
    "build_shards",
    "run_sharded_pingpong",
    "run_sharded_namd",
    "gate",
    "SHARD_GATE_SHARD_COUNTS",
]

#: Shard counts the equivalence gate compares against the serial engine.
SHARD_GATE_SHARD_COUNTS: Tuple[int, ...] = (1, 2, 4)


def build_shards(
    nnodes: int,
    nshards: int,
    build: Callable[[ShardEnvironment, ShardedBGQMachine], Instance],
) -> Tuple[List[Instance], ReservationFabric]:
    """One started SPMD mirror per shard over a shared in-process fabric.

    ``build(env, machine)`` is a :mod:`~repro.harness.workloads`
    builder bound to its workload arguments; shard 0 owns rank 0, so
    ``shards[0].done`` ends the run and ``shards[0].observe`` holds the
    root observables.
    """
    fabric = ReservationFabric(nnodes, nshards)
    shards = []
    for sid in range(nshards):
        env = ShardEnvironment(sid)
        shards.append(
            build(env, ShardedBGQMachine(env, nnodes, sid, nshards, fabric=fabric))
        )
    for shard in shards:
        shard.start()
    return shards, fabric


def _run_shards(
    shards: List[Instance], fabric: ReservationFabric
) -> Tuple[float, int, int]:
    """Coordinate the mirrors to ``done``; (wall s, total events, windows)."""
    coordinator = ShardCoordinator([s.env for s in shards], fabric)
    t0 = time.perf_counter()
    coordinator.run(shards[0].done)
    wall_s = time.perf_counter() - t0
    for shard in shards:
        shard.stop()
    events = sum(s.env.events_executed for s in shards)
    return wall_s, events, coordinator.windows_run


def run_sharded_pingpong(
    config: RunConfig,
    nbytes: int,
    nshards: int,
    trips: int = 8,
    src_rank: int = 0,
    dst_rank: Optional[int] = None,
    transport: str = "inproc",
) -> Dict[str, Any]:
    """Sharded ping-pong; returns serial-compatible run statistics.

    ``transport="inproc"`` runs all shards in this process under a
    :class:`ShardCoordinator`; ``"mp"`` forks one OS process per shard
    (eager/MEMFIFO traffic only — which ping-pong is).
    """
    if dst_rank is None:
        dst_rank = (config.nnodes - 1) * config.pes_per_node  # first PE, last node
    if transport == "inproc":
        shards, fabric = build_shards(
            config.nnodes, nshards,
            lambda env, machine: build_pingpong(
                config, nbytes, trips, src_rank, dst_rank, env, machine
            ),
        )
        wall_s, events, _ = _run_shards(shards, fabric)
        root = shards[0]
        sim_time, rtts = root.env.now, list(root.observe()["rtts"])
    elif transport == "mp":
        fabric = ReservationFabric(config.nnodes, nshards)

        def build_client(shard_id: int, nshards_: int) -> WireShardClient:
            env = ShardEnvironment(shard_id)
            machine = ShardedBGQMachine(env, config.nnodes, shard_id, nshards_)
            shard = build_pingpong(
                config, nbytes, trips, src_rank, dst_rank, env, machine
            )
            shard.start()

            def result() -> Dict[str, Any]:
                shard.stop()
                return {
                    "sim_time": env.now,
                    "rtts": list(shard.observe()["rtts"]),
                    "events": env.events_executed,
                }

            return WireShardClient(
                env, machine, done=shard.done if shard_id == 0 else None,
                result_fn=result,
            )

        t0 = time.perf_counter()
        per_shard = run_sharded_subprocesses(nshards, build_client, fabric)
        wall_s = time.perf_counter() - t0
        sim_time, rtts = per_shard[0]["sim_time"], per_shard[0]["rtts"]
        events = sum(r["events"] for r in per_shard.values())
    else:
        raise ValueError(f"unknown transport {transport!r}")
    return {
        "sim_time": sim_time,
        "rtts": rtts,
        "events": events,
        "wall_s": wall_s,
        "nshards": nshards,
        "transport": transport,
    }


def run_sharded_namd(
    use_m2m_pme: bool,
    n_steps: int,
    n_atoms: int,
    nnodes: int,
    workers: int,
    comm_threads: int,
    nshards: int,
    seed: int = 17,
) -> Dict[str, Any]:
    """Sharded :func:`~repro.harness.workloads.namd_run`; serial-compatible
    statistics from the root shard (rank 0 hosts both reduction roots).

    In-process transport only: the m2m slot back-channel and PME
    rendezvous flows carry object references across shards.
    """
    config = RunConfig(
        nnodes=nnodes,
        workers_per_process=workers,
        comm_threads_per_process=comm_threads,
    )
    shards, fabric = build_shards(
        nnodes, nshards,
        lambda env, machine: build_namd(
            config, n_atoms, n_steps, use_m2m_pme, seed, cutoff=7.5,
            env=env, machine=machine,
        ),
    )
    wall_s, events, windows = _run_shards(shards, fabric)
    root = shards[0]
    return {
        "sim_time": root.env.now,
        "step_times": tuple(root.observe()["steps"]),
        "events": events,
        "wall_s": wall_s,
        "nshards": nshards,
        "windows": windows,
    }


# ---------------------------------------------------------------------------
# the equivalence gate
# ---------------------------------------------------------------------------

def gate(args) -> Tuple[List[str], List[str], Dict[str, Any]]:
    """The ``shard`` gate: serial-vs-sharded bit-identity over the three
    gated benchmarks; (failures, notes, report body).

    For each benchmark, runs the serial engine once, then the sharded
    engine at every shard count (shards=1 exercises the full sharded
    machinery — buffered reservations, window barriers — and must
    still match).  Any differing ``repr`` of any simulated-time
    observable is a failure.
    """
    config = RunConfig(nnodes=4, workers_per_process=4)
    nbytes = 512
    if args.scale == "tiny":
        trips = 4
        f3 = (1, 256, 4, 1, 1)  # n_steps, n_atoms, nnodes, workers, comm_threads
        f10 = (1, 256, 4, 1, 1)
    else:
        trips = 200
        f3 = (2, 512, 4, 2, 2)
        f10 = (2, 512, 4, 2, 1)

    failures: List[str] = []
    notes: List[str] = []

    def check(label: str, serial: Dict[str, str], got: Dict[str, str]) -> None:
        if got == serial:
            notes.append(f"{label}: identical ({len(serial)} observables)")
            return
        drift = [
            k for k in sorted(set(serial) | set(got)) if serial.get(k) != got.get(k)
        ]
        failures.append(
            f"{label}: simulated-time drift vs serial — diverging "
            f"observables: {', '.join(drift)} (e.g. {drift[0]}: "
            f"serial={serial.get(drift[0])!r} sharded={got.get(drift[0])!r})"
        )

    def sharded_pingpong(nshards: int, transport: str = "inproc") -> Dict[str, str]:
        return pingpong_sim_times(
            run_sharded_pingpong(
                config, nbytes, nshards, trips=trips, transport=transport
            )
        )

    serial_pingpong = pingpong_sim_times(
        pingpong_run(
            config, nbytes, dst_rank=(config.nnodes - 1) * config.pes_per_node,
            trips=trips,
        )
    )
    cases = [
        ("pingpong", serial_pingpong, sharded_pingpong),
        (
            "fig3_m2m",
            namd_sim_times(namd_run(True, *f3)),
            lambda n: namd_sim_times(run_sharded_namd(True, *f3, n)),
        ),
        (
            "fig10_window",
            window_sim_times(namd_run(False, *f10), namd_run(True, *f10)),
            lambda n: window_sim_times(
                run_sharded_namd(False, *f10, n), run_sharded_namd(True, *f10, n)
            ),
        ),
    ]
    for name, serial, sharded in cases:
        for n in SHARD_GATE_SHARD_COUNTS:
            check(f"{name} shards={n}", serial, sharded(n))
    # The subprocess transport must agree too; one representative
    # config (pingpong is the MEMFIFO-only benchmark it supports).
    try:
        got = sharded_pingpong(2, transport="mp")
    except (ImportError, OSError) as exc:
        notes.append(f"pingpong mp-transport: skipped ({exc})")
    else:
        check("pingpong mp-transport shards=2", serial_pingpong, got)
    return failures, notes, {"shard_counts": list(SHARD_GATE_SHARD_COUNTS)}
