"""The gated workloads, defined once.

The paper measures one runtime under many configurations by holding
the workload fixed; the harness does the same with its own engine.
"The ping-pong" and "the mini-NAMD run" are built here and nowhere
else — the figure drivers, the bench/shard/iso/serve/obs/trace gates
and ``bench/`` all run these builders, serial or sharded, solo or
served, so a trajectory change shows in every gate at once.

A builder returns a deferred :class:`Instance` (built and seeded, not
yet stepped).  How it is driven is the caller's business:
:func:`run_instance` is the normal ``run(until=done)`` path, the iso
and serve gates step it through ``peek()``/``step()``, and the shard
gate passes a :class:`~repro.sim.shard.ShardEnvironment` plus its
:class:`~repro.bgq.shardnet.ShardedBGQMachine` so the same builder
becomes one SPMD mirror.

The ``*_sim_times`` functions are the benchmarks' gated observables:
each maps a serial-compatible run dict (``sim_time`` plus ``rtts`` or
``step_times``) to the ``repr`` strings the BENCH records checksum.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..converse import ConverseRuntime, RunConfig
from ..converse.messages import ConverseMessage
from ..serve.job import result_checksum
from ..sim import Environment

__all__ = [
    "NAMD_ENTRY_METHODS",
    "Instance",
    "build_pingpong",
    "build_namd",
    "run_instance",
    "namd_run",
    "pingpong_sim_times",
    "namd_sim_times",
    "window_sim_times",
]

#: Every entry method mini-NAMD (incl. its embedded FFT service) sends;
#: pre-registered in this order on every shard mirror so the lazily
#: allocated handler ids agree across shards.
NAMD_ENTRY_METHODS: Tuple[str, ...] = (
    "start",
    "take_positions",
    "add_force",
    "deposit",
    "pme_slab",
    "begin",
    "recv_block",
    "phase_done",
)


@dataclass
class Instance:
    """One deferred-run workload: built and seeded, but not yet stepped."""

    env: Environment
    start: Callable[[], None]  # bring up scheduler loops (before stepping)
    stop: Callable[[], None]  # tear down scheduler loops (after done)
    done: object  # Event whose processing ends the run
    observe: Callable[[], Dict[str, Sequence]]  # raw observable series
    name: str = ""

    def result(self) -> Dict[str, object]:
        """The workload's observables, ``repr``'d (the checksum payload)."""
        return {k: [repr(x) for x in v] for k, v in self.observe().items()}

    def checksum(self) -> str:
        """Bit-exact digest of final sim time and the observed series.

        Simulated observables only (``serve.job.result_checksum``): the
        event count is read from ``env.events_executed`` beside it, so
        this instance served, sharded or run serially has one digest.
        """
        return result_checksum({"now": repr(self.env.now), **self.result()})


def build_pingpong(
    config: RunConfig,
    nbytes: int,
    trips: int,
    src_rank: int,
    dst_rank: int,
    env: Optional[Environment] = None,
    machine: Any = None,
) -> Instance:
    """Converse ping-pong between ``src_rank`` and ``dst_rank``.

    Observes the round-trip times in cycles (``rtts``).  On a sharded
    ``machine`` every mirror registers both handlers (pong, then ping —
    the ids ride inside payloads) but only the shard owning
    ``src_rank`` seeds, and only its ``done`` ever fires.
    """
    if env is None:
        env = Environment()
    rt = ConverseRuntime(env, config, machine=machine)
    rtts: list = []
    done = env.event()
    state = {"t0": 0.0, "trip": 0}

    def pong(pe, msg):
        # Remote side: bounce straight back.
        yield from pe.send(src_rank, hid_ping, nbytes, None)

    def ping(pe, msg):
        now = env.now
        if state["trip"] > 0:
            rtts.append(now - state["t0"])
        if state["trip"] >= trips:
            done.succeed()
            return
        state["t0"] = now
        state["trip"] += 1
        yield from pe.send(dst_rank, hid_pong, nbytes, None)

    hid_pong = rt.register_handler(pong)
    hid_ping = rt.register_handler(ping)
    src_pe = rt.pes[src_rank]
    if src_pe is not None:
        src_pe.local_q.append(
            ConverseMessage(hid_ping, 0, None, src_rank, src_rank)
        )
    return Instance(env, rt.start, rt.stop, done, lambda: {"rtts": rtts})


def build_namd(
    config: RunConfig,
    n_atoms: int,
    n_steps: int,
    use_m2m_pme: bool,
    seed: int,
    cutoff: Optional[float] = None,
    pme_every: int = 1,
    env: Optional[Environment] = None,
    machine: Any = None,
) -> Instance:
    """Mini-NAMD (Charm layer over Converse), every patch seeded.

    Observes the per-step completion times in cycles (``steps``) and
    kinetic energies (``kinetic``).  ``cutoff`` shortens the ApoA1
    cutoff (7.5 A puts the miniature system in the paper's fine-grained
    regime: many patches per PE, messaging a large share of the step).
    Every shard of a sharded run builds the identical system and
    application; seeds land only on the owning mirror.
    """
    # Imported here so ping-pong callers do not load the Charm/NAMD
    # layers (and so a patched ``namd.system.build_system`` is seen).
    from ..charm import Charm
    from ..namd.charm_app import NamdCharm
    from ..namd.system import APOA1, build_system

    spec = APOA1 if cutoff is None else dataclasses.replace(APOA1, cutoff=cutoff)
    system = build_system(
        n_atoms, spec_like=spec, temperature=0.003, bond_fraction=0.0, seed=seed
    )
    charm = Charm(config, env=env, machine=machine)
    app = NamdCharm(
        charm, system, n_steps=n_steps, pme_every=pme_every,
        use_m2m_pme=use_m2m_pme, dt=0.004,
    )
    if machine is not None:
        # Handler ids ride inside payloads across shards, so every
        # mirror must allocate them in one fixed order.
        charm.register_entries(NAMD_ENTRY_METHODS)
    for p in range(app.patch_grid.n_patches):
        charm.seed(app.patches, p, "start")

    def observe() -> Dict[str, Sequence]:
        return {
            "steps": [t for t, _ in app.step_log],
            "kinetic": [ke for _, ke in app.step_log],
        }

    return Instance(charm.env, charm.start, charm.runtime.stop, charm.done, observe)


def run_instance(inst: Instance) -> float:
    """Run one instance alone via ``run(until=done)``; wall seconds."""
    t0 = time.perf_counter()
    inst.start()
    inst.env.run(until=inst.done)
    inst.stop()
    return time.perf_counter() - t0


def namd_run(
    use_m2m_pme: bool,
    n_steps: int,
    n_atoms: int,
    nnodes: int,
    workers: int,
    comm_threads: int,
    seed: int = 17,
) -> Dict[str, Any]:
    """One untraced serial mini-NAMD run (7.5 A cutoff); raw statistics.

    Same positional signature and return keys as
    :func:`repro.harness.shardbench.run_sharded_namd`, which it is the
    serial oracle for.
    """
    inst = build_namd(
        RunConfig(
            nnodes=nnodes,
            workers_per_process=workers,
            comm_threads_per_process=comm_threads,
        ),
        n_atoms, n_steps, use_m2m_pme, seed, cutoff=7.5,
    )
    wall_s = run_instance(inst)
    return {
        "wall_s": wall_s,
        "events": inst.env.events_executed,
        "sim_time": inst.env.now,
        "step_times": tuple(inst.observe()["steps"]),
    }


# -- gated observables -------------------------------------------------------

def pingpong_sim_times(run: Dict[str, Any]) -> Dict[str, str]:
    """``pingpong``'s observables: final clock and round-trip sum."""
    return {
        "final": repr(run["sim_time"]),
        "rtt_sum": repr(float(sum(run["rtts"]))),
    }


def namd_sim_times(run: Dict[str, Any]) -> Dict[str, str]:
    """``fig3_m2m``'s observables: final clock and every step boundary."""
    sim_times = {"final": repr(run["sim_time"])}
    for i, t in enumerate(run["step_times"]):
        sim_times[f"step{i}"] = repr(t)
    return sim_times


def window_sim_times(std: Dict[str, Any], m2m: Dict[str, Any]) -> Dict[str, str]:
    """``fig10_window``'s observables: steps completed, std vs m2m PME,
    inside a window sized to 3/4 of the standard-PME run."""
    window = std["sim_time"] * 0.75
    return {
        "final_std": repr(std["sim_time"]),
        "final_m2m": repr(m2m["sim_time"]),
        "steps_in_window_std": repr(
            sum(1 for t in std["step_times"] if t <= window)
        ),
        "steps_in_window_m2m": repr(
            sum(1 for t in m2m["step_times"] if t <= window)
        ),
    }
