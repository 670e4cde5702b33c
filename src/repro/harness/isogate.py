"""Concurrent-Environment isolation gate (``make iso-gate``).

The whole-program lint families prove *statically* that no module-level
mutable state can leak between simulator instances (rules G1-G4, see
docs/ANALYSIS.md).  This harness proves it *dynamically*: N independent
:class:`~repro.sim.Environment` instances are built in one process and
stepped in an adversarial round-robin interleaving (varying stride per
instance per turn), and every instance must produce a **bit-identical**
simulated-time checksum to the same workload run solo through the
normal ``run(until=event)`` path.

Why this is a sound oracle: ``Environment.run(until=event)`` is exactly
"``step()`` until the event is processed", so a manual step loop over
instance A interleaved with steps of instances B..N can only diverge
from A's solo run if stepping B..N mutates state A reads — i.e. if some
shared mutable module global exists that the static pass missed.

Only the public Environment surface is used — ``peek()``, ``step()``,
``Event.processed`` — never ``_queue``/``_imm`` (lint rule P3).

Workloads (N=4 tiny, N=6 full): Converse-level ping-pongs in distinct
run modes plus, at full scale, two Charm-level mini-NAMD runs (std and
many-to-many PME), so both runtime layers are exercised concurrently.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..converse import ConverseRuntime, RunConfig
from ..converse.messages import ConverseMessage
from ..serve.job import result_checksum
from ..sim import Environment

__all__ = [
    "IsoInstance",
    "build_pingpong_instance",
    "build_namd_instance",
    "gate_workloads",
    "run_solo",
    "run_interleaved",
    "isolation_gate",
    "main",
]

#: Per-turn step strides; instance ``i`` advances ``STRIDES[(turn + i) %
#: len(STRIDES)]`` events on its turn, so the interleaving pattern keeps
#: shifting instead of degenerating into a fixed 1:1:...:1 rotation.
STRIDES: Tuple[int, ...] = (1, 2, 3, 5)


@dataclass
class IsoInstance:
    """One deferred-run workload: built and seeded, but not yet stepped."""

    name: str
    env: Environment
    start: Callable[[], None]  # bring up scheduler loops (before stepping)
    stop: Callable[[], None]  # tear down scheduler loops (after done)
    done: object  # Event whose processing ends the run
    result: Callable[[], Dict[str, object]]  # repr'd workload observables

    def checksum(self) -> str:
        """Bit-exact digest of final sim time, event count and results."""
        payload = {
            "now": repr(self.env.now),
            "events": self.env.events_executed,
        }
        payload.update(self.result())
        return result_checksum(payload)


def build_pingpong_instance(
    name: str,
    config: RunConfig,
    nbytes: int,
    dst_rank: Optional[int] = None,
    trips: int = 8,
) -> IsoInstance:
    """A deferred ping-pong run (same protocol as ``pingpong_run``)."""
    env = Environment()
    rt = ConverseRuntime(env, config)
    src_rank = 0
    if dst_rank is None:
        dst_rank = config.pes_per_node  # first PE of node 1
    rtts: List[float] = []
    done = env.event()
    state = {"t0": 0.0, "trip": 0}

    def pong(pe, msg):
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
    rt.pes[src_rank].local_q.append(
        ConverseMessage(hid_ping, 0, None, src_rank, src_rank)
    )

    def result() -> Dict[str, object]:
        return {"rtts": [repr(t) for t in rtts]}

    return IsoInstance(name, env, rt.start, rt.stop, done, result)


def build_namd_instance(
    name: str,
    use_m2m_pme: bool,
    n_atoms: int = 216,
    n_steps: int = 2,
    seed: int = 7,
) -> IsoInstance:
    """A deferred tiny mini-NAMD run (Charm layer over Converse)."""
    from ..charm import Charm
    from ..namd.charm_app import NamdCharm
    from ..namd.system import build_system

    charm = Charm(
        RunConfig(nnodes=2, workers_per_process=2, comm_threads_per_process=1)
    )
    system = build_system(
        n_atoms, temperature=0.003, bond_fraction=0.0, seed=seed
    )
    app = NamdCharm(
        charm, system, n_steps=n_steps, pme_every=1, use_m2m_pme=use_m2m_pme,
        dt=0.004,
    )
    for p in app.patches.indices:
        charm.seed(app.patches, p, "start")

    def result() -> Dict[str, object]:
        return {
            "steps": [repr(t) for t, _ in app.step_log],
            "kinetic": [repr(ke) for _, ke in app.step_log],
        }

    return IsoInstance(name, charm.env, charm.start, charm.runtime.stop,
                       charm.done, result)


def gate_workloads(scale: str = "full") -> List[Tuple[str, Callable[[], IsoInstance]]]:
    """(name, builder) pairs; each call to a builder is a fresh instance."""
    trips = 6 if scale == "tiny" else 8
    workloads: List[Tuple[str, Callable[[], IsoInstance]]] = [
        (
            "pingpong/non-SMP/512B",
            lambda: build_pingpong_instance(
                "pingpong/non-SMP/512B",
                RunConfig(nnodes=2, processes_per_node=1, workers_per_process=1),
                512, trips=trips,
            ),
        ),
        (
            "pingpong/SMP/2048B",
            lambda: build_pingpong_instance(
                "pingpong/SMP/2048B",
                RunConfig(nnodes=2, workers_per_process=4),
                2048, trips=trips,
            ),
        ),
        (
            "pingpong/SMP+ct/16B",
            lambda: build_pingpong_instance(
                "pingpong/SMP+ct/16B",
                RunConfig(
                    nnodes=2, workers_per_process=4, comm_threads_per_process=1
                ),
                16, trips=trips,
            ),
        ),
        (
            "pingpong/intranode-SMP/128B",
            lambda: build_pingpong_instance(
                "pingpong/intranode-SMP/128B",
                RunConfig(nnodes=1, workers_per_process=4),
                128, dst_rank=3, trips=trips,
            ),
        ),
    ]
    if scale == "full":
        workloads += [
            (
                "namd/std-PME",
                lambda: build_namd_instance("namd/std-PME", use_m2m_pme=False),
            ),
            (
                "namd/m2m-PME",
                lambda: build_namd_instance("namd/m2m-PME", use_m2m_pme=True),
            ),
        ]
    return workloads


def run_solo(build: Callable[[], IsoInstance]) -> Tuple[str, str]:
    """Run one workload alone via the normal run path; return (name, checksum)."""
    inst = build()
    inst.start()
    inst.env.run(until=inst.done)
    inst.stop()
    return inst.name, inst.checksum()


def run_interleaved(
    builders: Sequence[Callable[[], IsoInstance]],
    strides: Sequence[int] = STRIDES,
) -> Dict[str, str]:
    """Build every workload fresh, step them round-robin, return checksums.

    Each instance stops exactly when its done event is processed — the
    same stopping point as ``env.run(until=done)`` — so a checksum can
    differ from the solo run only through cross-instance interference.
    """
    instances = [build() for build in builders]
    for inst in instances:
        inst.start()
    active = list(range(len(instances)))
    turn = 0
    while active:
        still: List[int] = []
        for i in active:
            inst = instances[i]
            for _ in range(strides[(turn + i) % len(strides)]):
                if inst.done.processed:
                    break
                if inst.env.peek() == float("inf"):
                    raise RuntimeError(
                        f"{inst.name}: event queue drained before the done "
                        "event was processed"
                    )
                inst.env.step()
            if not inst.done.processed:
                still.append(i)
        active = still
        turn += 1
    for inst in instances:
        inst.stop()
    return {inst.name: inst.checksum() for inst in instances}


def isolation_gate(scale: str = "full", verbose: bool = True) -> Dict[str, dict]:
    """Solo pass, then fresh interleaved pass; compare checksums.

    Returns ``{name: {"solo": cs, "interleaved": cs, "ok": bool}}``.
    """
    workloads = gate_workloads(scale)
    solo: Dict[str, str] = {}
    for name, build in workloads:
        _, cs = run_solo(build)
        solo[name] = cs
        if verbose:
            print(f"iso-gate: solo        {name:32s} {cs}")
    inter = run_interleaved([build for _, build in workloads])
    report: Dict[str, dict] = {}
    for name, _ in workloads:
        ok = solo[name] == inter[name]
        report[name] = {
            "solo": solo[name], "interleaved": inter[name], "ok": ok,
        }
        if verbose:
            verdict = "identical" if ok else "DIVERGED"
            print(
                f"iso-gate: interleaved {name:32s} {inter[name]}  {verdict}"
            )
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.isogate",
        description="concurrent-Environment isolation gate: N interleaved "
        "instances must checksum bit-identically to solo runs",
    )
    parser.add_argument(
        "--scale", choices=("tiny", "full"), default="full",
        help="tiny = 4 ping-pong instances; full adds 2 mini-NAMD runs",
    )
    parser.add_argument(
        "--json-out", type=Path, default=None,
        help="write the per-instance checksum report to this file",
    )
    args = parser.parse_args(argv)

    report = isolation_gate(scale=args.scale)
    if args.json_out is not None:
        from ..ioutil import atomic_write_text

        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(args.json_out, json.dumps(report, indent=2) + "\n")
    bad = sorted(name for name, rec in report.items() if not rec["ok"])
    if bad:
        print(
            f"iso-gate: FAIL — {len(bad)} instance(s) diverged under "
            f"interleaving: {', '.join(bad)}",
            file=sys.stderr,
        )
        return 1
    print(
        f"iso-gate: PASS ({len(report)} concurrent Environments, "
        "interleaved checksums bit-identical to solo)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
