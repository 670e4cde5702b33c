"""Chaos fuzz harness: workloads under seeded fault injection.

Runs the DES workloads — Converse ping-pong, a PAMI many-to-many burst
pattern (the communication shape behind Fig. 3's FFT transposes), an
asynchronous Jacobi / chaotic-relaxation solver, and a JLQCD-style 4D
lattice halo exchange — on a torus that drops, duplicates, delays,
reorders and corrupts packets per a named
:class:`~repro.faults.plan.FaultPlan` profile.

Two gate families, selected by the cell's QoS mode (the matrix's
second axis, :mod:`repro.faults.qos`):

* **exactly-once** (reliable) — every application-level message
  arrives exactly once, bit-identical to what was sent, and the
  quiescence detector fires within a generous horizon;
* **degraded-but-correct** (best_effort / fresh) — messages may be
  lost, but everything that does arrive is bit-exact and causally
  valid (echo prefixes, payload subsets, converged residuals, bounded
  staleness), and the run still quiesces — nothing is ever invented,
  corrupted, or wedged.

The ``partition`` profile (100% loss) is the degradation limit: the
gate there is that the run *quiesces anyway* — reliable senders give
up after the backoff ladder (``gave_up > 0``), best-effort senders
just lose the traffic — instead of hanging the detector forever.

The matrix is ``profiles x seeds x workloads x qos``; one failure
fails the run.  Used by ``make chaos`` (CI runs a small matrix under
``REPRO_SANITIZE=1``) and directly::

    python -m repro.harness chaos --profiles drop5 chaos \
        --qos reliable best_effort --json-out chaos.json

Determinism: a (profile, seed, workload, qos) cell is a bit-exact
trajectory; failures reproduce by rerunning the same cell.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..bgq.params import CYCLES_PER_US
from ..charm import Charm
from ..converse import CmiDirectManytomany
from ..converse.machine import ConverseRuntime, RunConfig
from ..converse.messages import ConverseMessage
from ..converse.quiescence import QuiescenceDetector
from ..faults import FaultPlan, QOS_BEST_EFFORT, QOS_RELIABLE, parse_qos, qos_name
from ..sim import Environment
from ..workloads import LatticeHalo, build_jacobi
from types import MappingProxyType

__all__ = [
    "run_pingpong_chaos",
    "run_m2m_chaos",
    "run_jacobi_chaos",
    "run_lattice_chaos",
    "run_matrix",
    "add_options",
    "gate",
]

#: Give-up horizon (cycles): covers a full exponential-backoff ladder
#: (25 us base x 2^12) plus the workload itself.
HORIZON_CYCLES = 600_000_000.0

#: Chaos quiescence polling is coarse (the workloads are long).
QD_POLL_US = 20.0

#: Profiles where loss is total by construction: the gate degrades to
#: "the run still quiesces" (plus give-up accounting for reliable
#: traffic) — payload delivery is impossible, not merely lossy.
DEGRADED_PROFILES = frozenset({"partition"})


def _finish(env, rt, qd, quiesced, workload, plan, qos) -> Dict[str, object]:
    """Drive the run to quiescence (bounded) and collect the verdict."""
    horizon = env.timeout(HORIZON_CYCLES)
    env.run(until=env.any_of([quiesced, horizon]))
    rt.stop()
    rels = [c.reliability for p in rt.processes for c in p.client.contexts]
    rels = [r for r in rels if r is not None]
    return {
        "workload": workload,
        "profile": plan.name,
        "seed": plan.seed,
        "qos": qos_name(qos),
        "quiesced": quiesced.triggered,
        "sim_time": env.now,
        "qd_rounds": qd.rounds,
        "qd_protocol_msgs": qd.protocol_msgs,
        "faults": rt.fault_injector.stats.as_dict() if rt.fault_injector else {},
        "messages_sent": rt.messages_sent,
        "best_effort_sends": rt.best_effort_sends,
        "acks_sent": sum(r.acks_sent for r in rels),
        "retries": sum(r.retries for r in rels),
        "gave_up": sum(r.gave_up for r in rels),
        "dup_suppressed": sum(r.dup_suppressed for r in rels),
        "reordered_accepted": sum(r.reordered_accepted for r in rels),
        "corrupt_dropped": sum(r.corrupt_dropped for r in rels),
        "stale_dropped": sum(r.stale_dropped for r in rels),
        "holes_skipped": sum(r.holes_skipped for r in rels),
        "timers_cancelled": sum(r.timers_cancelled for r in rels),
        "in_flight_left": sum(r.in_flight for r in rels),
    }


def run_pingpong_chaos(
    profile: str,
    seed: int,
    trips: int = 20,
    nbytes: int = 64,
    qos="reliable",
) -> Dict[str, object]:
    """Converse ping-pong across two nodes under a fault profile.

    Each trip carries a payload derived from the trip index.  Reliable:
    the echo must return every payload, in order.  Best-effort: a
    single dropped leg stalls the chain (each trip waits for the prior
    echo), so the gate is *prefix* correctness — whatever echoed back
    is exactly the expected sequence up to the stall — plus quiescence.
    """
    q = parse_qos(qos)
    plan = FaultPlan.profile(profile, seed=seed)
    env = Environment()
    cfg = RunConfig(nnodes=2, workers_per_process=2, fault_plan=plan)
    rt = ConverseRuntime(env, cfg)
    dst_rank = cfg.pes_per_node  # first PE of node 1
    echoes: List[object] = []
    done = env.event()

    def expected_payload(trip: int):
        return ("pingpong", trip, bytes([trip % 251, (trip * 7) % 251]))

    def pong(pe, msg):
        yield from pe.send(0, hid_ping, nbytes, msg.payload, qos=q)

    def ping(pe, msg):
        if msg.payload is not None:
            echoes.append(msg.payload)
        trip = len(echoes)
        if trip >= trips:
            if not done.triggered:
                done.succeed()
            return
        yield from pe.send(dst_rank, hid_pong, nbytes, expected_payload(trip), qos=q)

    hid_pong = rt.register_handler(pong)
    hid_ping = rt.register_handler(ping)
    rt.pes[0].local_q.append(ConverseMessage(hid_ping, 0, None, 0, 0))
    qd = QuiescenceDetector(rt, poll_interval_us=QD_POLL_US)
    quiesced = qd.start()
    rt.start()
    # A stalled best-effort chain never fires `done`; quiescence is the
    # productive exit (the horizon only backstops a wedged detector).
    env.run(until=env.any_of([done, quiesced, env.timeout(HORIZON_CYCLES)]))
    result = _finish(env, rt, qd, quiesced, "pingpong", plan, q)
    want = [expected_payload(i) for i in range(trips)]
    result["trips_completed"] = len(echoes)
    degraded = profile in DEGRADED_PROFILES
    if q == QOS_RELIABLE and not degraded:
        result["payload_ok"] = done.triggered and echoes == want
        result["ok"] = bool(result["payload_ok"] and result["quiesced"])
    elif q == QOS_BEST_EFFORT:
        # Plain best-effort has no dedup: a duplicated leg forks the
        # chain, so ordering is unspecified — the correctness claim is
        # only that every echo is bit-exact (nothing invented).
        result["payload_ok"] = set(echoes) <= set(want)
        result["ok"] = bool(result["payload_ok"] and result["quiesced"])
    else:
        # FRESH (generation filtering restores exactly-once per trip)
        # and partitioned reliable: every echo that made it is the
        # right one, in order, with no gaps before the stall.
        result["payload_ok"] = echoes == want[: len(echoes)]
        ok = result["payload_ok"] and result["quiesced"]
        if q == QOS_RELIABLE:  # partition: the transport must give up
            ok = ok and result["gave_up"] > 0
        result["ok"] = bool(ok)
    return result


def run_m2m_chaos(
    profile: str,
    seed: int,
    rounds: int = 3,
    fanout: int = 12,
    nbytes: int = 96,
    qos="reliable",
    deadline_us: float = 400.0,
) -> Dict[str, object]:
    """Fig. 3-style many-to-many bursts under a fault profile.

    Two SMP processes (one per node, each with a communication thread)
    exchange ``fanout`` short messages per round through the persistent
    ManyToMany interface — traffic that bypasses the Converse send
    counters entirely, which is exactly the path where a quiescence
    detector ignoring retransmit-pending packets declares victory too
    early.  One handle per (process, round) keeps rounds race-free.

    Reliable: the transport's dedup makes per-round arrival counting
    exact — the full payload multiset must arrive.  Best-effort: each
    round completes at ``deadline_us`` with whatever arrived
    (shortfall accounted); the gate is that every arrival is a
    bit-exact expected payload and the run quiesces.
    """
    q = parse_qos(qos)
    plan = FaultPlan.profile(profile, seed=seed)
    env = Environment()
    cfg = RunConfig(
        nnodes=2,
        workers_per_process=2,
        comm_threads_per_process=1,
        fault_plan=plan,
    )
    rt = ConverseRuntime(env, cfg)
    procs = rt.processes
    received: Dict[int, List[object]] = {0: [], 1: []}
    deadline = None if q == QOS_RELIABLE else deadline_us * CYCLES_PER_US

    def payload_for(src_proc: int, rnd: int, i: int):
        return ("m2m", src_proc, rnd, i, bytes([(src_proc + rnd + i) % 251]))

    handles = {}
    for pi, proc in enumerate(procs):
        peer = procs[1 - pi]
        peer_eps = [c.endpoint for c in peer.contexts]
        for rnd in range(rounds):
            sends = [
                (peer_eps[i % len(peer_eps)], nbytes, payload_for(pi, rnd, i), rnd)
                for i in range(fanout)
            ]
            handles[(pi, rnd)] = proc.m2m.register(
                rnd, sends, expected_recvs=fanout, qos=q, deadline_cycles=deadline
            )

    def make_sink(pi: int):
        def sink(src_endpoint, data):
            received[pi].append(data)

        return sink

    for pi in range(2):
        for rnd in range(rounds):
            handles[(pi, rnd)].on_message = make_sink(pi)

    finished = {"n": 0}
    all_done = env.event()

    def kick(pe, msg):
        proc = pe.process
        pi = procs.index(proc)
        for rnd in range(rounds):
            h = handles[(pi, rnd)]
            yield from proc.m2m.start(pe.thread, h)
            yield h.send_done
            yield h.recv_done
        finished["n"] += 1
        if finished["n"] == 2 and not all_done.triggered:
            all_done.succeed()

    hid_kick = rt.register_handler(kick)
    for pe_rank in (0, cfg.pes_per_node):
        rt.pes[pe_rank].local_q.append(
            ConverseMessage(hid_kick, 0, None, pe_rank, pe_rank)
        )
    qd = QuiescenceDetector(rt, poll_interval_us=QD_POLL_US)
    quiesced = qd.start()
    rt.start()
    # Best-effort rounds are deadline-bounded, so all_done always
    # fires — and quiescence legitimately fires *during* a deadline
    # wait (best-effort traffic is invisible to the detector), so it
    # only belongs in the wait set when reliable rounds can wedge.
    waiters = [all_done, env.timeout(HORIZON_CYCLES)]
    if q == QOS_RELIABLE:
        waiters.append(quiesced)
    env.run(until=env.any_of(waiters))
    result = _finish(env, rt, qd, quiesced, "m2m", plan, q)
    result["shortfall"] = sum(h.shortfall for h in handles.values())
    result["delivered"] = sum(len(v) for v in received.values())
    degraded = profile in DEGRADED_PROFILES
    if q == QOS_RELIABLE and not degraded:
        ok = all_done.triggered
        for pi in range(2):
            want = sorted(
                payload_for(1 - pi, rnd, i)
                for rnd in range(rounds)
                for i in range(fanout)
            )
            ok = ok and sorted(received[pi]) == want
        result["payload_ok"] = ok
        result["ok"] = bool(ok and result["quiesced"])
    elif q == QOS_RELIABLE:
        # Partitioned reliable bursts: rounds can never complete; the
        # gate is give-up-and-quiesce, with nothing delivered invented.
        result["payload_ok"] = not received[0] and not received[1]
        result["ok"] = bool(
            result["payload_ok"] and result["quiesced"] and result["gave_up"] > 0
        )
    else:
        # Best-effort: deadlines bound every round, so the barriers
        # complete even at 100% loss; arrivals must be a subset of the
        # expected payload set (duplicates legal — there is no dedup).
        ok = all_done.triggered
        for pi in range(2):
            want = {
                payload_for(1 - pi, rnd, i)
                for rnd in range(rounds)
                for i in range(fanout)
            }
            ok = ok and set(received[pi]) <= want
        result["payload_ok"] = ok
        result["ok"] = bool(ok and result["quiesced"])
    return result


def run_jacobi_chaos(
    profile: str,
    seed: int,
    ncells: int = 8,
    sweeps: int = 60,
    tol: float = 1.0e-3,
    qos="reliable",
) -> Dict[str, object]:
    """Asynchronous Jacobi under a fault profile (degraded-but-correct).

    Chaotic relaxation converges as long as every cell keeps sweeping
    and halos are eventually refreshed, so under every lossy profile —
    any QoS mode — the gate is the converged residual against the
    manufactured exact solution.  Under ``partition`` the cross-node
    halo flow (and the reduction's cross-node leg) is severed: the gate
    degrades to "the run still quiesces, with give-ups accounted" (the
    reduction is always reliable, so ``gave_up > 0`` holds in every
    QoS mode).
    """
    q = parse_qos(qos)
    plan = FaultPlan.profile(profile, seed=seed)
    env = Environment()
    # Comm threads are load-bearing: busy worker PEs advance their own
    # PAMI context only when idle, and the self-driven sweep engine is
    # never idle — without comm threads cross-node halos arrive in
    # stale bursts and the async iteration stalls far from the fixed
    # point (the §III SMP-mode point, in miniature).
    cfg = RunConfig(
        nnodes=2,
        workers_per_process=2,
        comm_threads_per_process=1,
        fault_plan=plan,
    )
    charm = Charm(cfg, env=env)
    box = build_jacobi(charm, ncells=ncells, sweeps=sweeps, qos=q)
    qd = QuiescenceDetector(charm.runtime, poll_interval_us=QD_POLL_US)
    quiesced = qd.start()
    charm.start()
    env.run(until=env.any_of([charm.done, quiesced, env.timeout(HORIZON_CYCLES)]))
    result = _finish(env, charm.runtime, qd, quiesced, "jacobi", plan, q)
    result["residual"] = box["residual"]
    result["converged"] = box["residual"] is not None and box["residual"] <= tol
    if profile in DEGRADED_PROFILES:
        result["payload_ok"] = True
        result["ok"] = bool(result["quiesced"] and result["gave_up"] > 0)
    else:
        result["payload_ok"] = result["converged"]
        result["ok"] = bool(result["converged"] and result["quiesced"])
    return result


def run_lattice_chaos(
    profile: str,
    seed: int,
    rounds: int = 4,
    qos="reliable",
    deadline_us: float = 400.0,
) -> Dict[str, object]:
    """4D lattice halo exchange under a fault profile.

    Reliable: every (site, round) update arrives exactly once and the
    round barriers all complete.  Best-effort: rounds complete at the
    deadline; the gate is bit-exact arrivals (nothing invented or
    corrupted), bounded staleness — every peer site heard from at
    least once — and quiescence.  Under ``partition`` staleness is
    total by construction and only the quiesce/give-up gate remains.
    """
    q = parse_qos(qos)
    plan = FaultPlan.profile(profile, seed=seed)
    env = Environment()
    cfg = RunConfig(
        nnodes=2,
        workers_per_process=2,
        comm_threads_per_process=1,
        fault_plan=plan,
    )
    rt = ConverseRuntime(env, cfg)
    cmidirect = CmiDirectManytomany(rt)
    lat = LatticeHalo(
        rt,
        cmidirect,
        rounds=rounds,
        qos=q,
        deadline_cycles=deadline_us * CYCLES_PER_US,
    ).install()
    qd = QuiescenceDetector(rt, poll_interval_us=QD_POLL_US)
    quiesced = qd.start()
    rt.start()
    # Same wait-set rule as run_m2m_chaos: deadline-bounded best-effort
    # rounds always reach all_done; quiesced covers wedged reliable ones.
    waiters = [lat.all_done, env.timeout(HORIZON_CYCLES)]
    if q == QOS_RELIABLE:
        waiters.append(quiesced)
    env.run(until=env.any_of(waiters))
    result = _finish(env, rt, qd, quiesced, "lattice", plan, q)
    staleness = lat.staleness()
    result["shortfall"] = lat.shortfall
    result["distinct_updates"] = lat.distinct_updates()
    result["expected_updates"] = lat.expected_updates
    result["max_staleness"] = max(staleness.values())
    integrity = lat.integrity_ok()
    degraded = profile in DEGRADED_PROFILES
    if q == QOS_RELIABLE and not degraded:
        result["payload_ok"] = (
            integrity and lat.distinct_updates() == lat.expected_updates
        )
        result["ok"] = bool(
            lat.all_done.triggered and result["payload_ok"] and result["quiesced"]
        )
    elif q == QOS_RELIABLE:
        # Partitioned reliable rounds never complete: give up, quiesce.
        result["payload_ok"] = integrity
        result["ok"] = bool(
            integrity and result["quiesced"] and result["gave_up"] > 0
        )
    else:
        result["payload_ok"] = integrity
        ok = lat.all_done.triggered and integrity and result["quiesced"]
        if not degraded:
            # Lossy-but-connected: every peer site must have been heard
            # from at least once across the run.
            ok = ok and result["max_staleness"] < rounds
        result["ok"] = bool(ok)
    return result


_WORKLOADS = MappingProxyType({
    "pingpong": run_pingpong_chaos,
    "m2m": run_m2m_chaos,
    "jacobi": run_jacobi_chaos,
    "lattice": run_lattice_chaos,
})


def run_matrix(
    profiles: List[str],
    seeds: List[int],
    workloads: List[str],
    qos_modes: List[str] = ("reliable",),
    **kwargs,
) -> List[Dict[str, object]]:
    """Run the full chaos matrix; returns one result dict per cell."""
    results = []
    for profile in profiles:
        for seed in seeds:
            for workload in workloads:
                for qos in qos_modes:
                    fn = _WORKLOADS[workload]
                    results.append(
                        fn(profile, seed, qos=qos, **kwargs.get(workload, {}))
                    )
    return results


def add_options(parser) -> None:
    parser.add_argument(
        "--profiles", nargs="+", default=["drop5"],
        help="fault profile names (repro.faults.plan.PROFILES)",
    )
    parser.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2])
    parser.add_argument(
        "--workloads", nargs="+", default=["pingpong", "m2m"],
        choices=sorted(_WORKLOADS),
    )
    parser.add_argument(
        "--qos", nargs="+", default=["reliable"],
        metavar="MODE",
        help="delivery modes per cell: reliable / best_effort / fresh",
    )
    parser.add_argument("--trips", type=int, default=20, help="ping-pong trips")


def gate(args) -> Tuple[List[str], List[str], Dict[str, Any]]:
    """The ``chaos`` gate: (failures, notes, the matrix summary)."""
    results = run_matrix(
        args.profiles, args.seeds, args.workloads, qos_modes=args.qos,
        pingpong={"trips": args.trips},
    )
    failures: List[str] = []
    notes: List[str] = []
    for r in results:
        cell = (
            f"{r['workload']:<8} profile={r['profile']:<9} "
            f"seed={r['seed']} qos={r['qos']:<11}"
        )
        notes.append(
            f"[{'ok' if r['ok'] else 'FAIL'}] {cell} "
            f"faults={sum(r['faults'].values())} "
            f"retries={r['retries']} gave_up={r['gave_up']} "
            f"acks={r['acks_sent']} stale={r['stale_dropped']} "
            f"quiesced={r['quiesced']} sim_cycles={r['sim_time']:.0f}"
        )
        if not r["ok"]:
            failures.append(
                f"{cell.rstrip()}: payload_ok={r['payload_ok']} "
                f"quiesced={r['quiesced']}"
            )
    passed = len(results) - len(failures)
    notes.append(f"{passed}/{len(results)} cells passed")
    return failures, notes, {
        "cells": len(results),
        "passed": passed,
        "profiles": args.profiles,
        "seeds": args.seeds,
        "workloads": args.workloads,
        "qos": args.qos,
        "results": [
            {k: v for k, v in r.items() if not isinstance(v, bytes)}
            for r in results
        ],
    }
