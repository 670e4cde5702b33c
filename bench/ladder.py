"""The per-layer ladder: each layer driven alone through its public API.

A rung builds the smallest fixture that exercises one layer with nothing
above it (``bgq`` with no PAMI, ``pami`` context-to-context with no
Converse, ...), times only the engine run, and reports the median host
time per unit of work over its repeats.

The rungs measure the program, not the workload, and every traced run has
to print every one — but one run cannot give all of them a fair sample.
So each rung has a *home* workload (``_HOME``): in that workload's traced
run it gets its full share (a micro rung at least ``rung_s`` seconds and
``MIN_REPS`` repeats, a heavy rung all the time the run has left); in the
other three it runs the floor (``MIN_REPS`` repeats, or one for a heavy
rung).  The sample count is reported beside every value; cite a rung from
its home run.

``n`` scales the work per repeat; the smoke test passes a small one.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, Dict, Tuple

import numpy as np

from repro.bgq import BGQMachine, Core
from repro.charm import Chare, Charm
from repro.converse import ConverseRuntime, RunConfig
from repro.fft import batch_fft
from repro.harness import servebench
from repro.harness.pingpong import pingpong_run
from repro.harness.shardbench import run_sharded_pingpong
from repro.namd import pair_forces, pme_reciprocal
from repro.namd.system import APOA1
from repro.obs import ProfileSession, percentile
from repro.pami import CommThread, ManyToManyRegistry, PamiClient
from repro.perfmodel.namdmodel import NamdRunConfig, namd_step_time
from repro.queues import L2AtomicQueue
from repro.sim import Environment
from repro.serve import DONE, JobSpec
from repro.sim.shard import ShardEnvironment, ShmRing

from . import spans as spans_mod
from .workloads import PmeM2M, ServeMix, ShardM2M, build_namd

_INF = float("inf")

#: a rung returns (host seconds of the timed region, units of work in it)
Rung = Callable[[], Tuple[float, float]]


def median_per_unit(rung: Rung, budget_s: float, min_reps: int) -> Tuple[float, int]:
    """(median host seconds per unit, repeats) over >= ``min_reps``
    repeats of ``rung``, repeating until ``budget_s`` is spent."""
    values = []
    stop = perf_counter() + budget_s
    while len(values) < min_reps or perf_counter() < stop:
        seconds, units = rung()
        values.append(seconds / units)
    return statistics.median(values), len(values)


def repeat_within(budget_s: float, fn: Callable[[], object]) -> int:
    """Call ``fn`` once, then again as long as another call as long as
    the longest so far still fits in ``budget_s``; returns the calls."""
    t0 = perf_counter()
    longest = 0.0
    calls = 0
    while calls == 0 or perf_counter() - t0 + longest <= budget_s:
        longest = max(longest, _timed(fn))
        calls += 1
    return calls


def _timed(fn: Callable[[], object]) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


# -- sim ---------------------------------------------------------------------

def _event_mix(env: Environment, n: int) -> None:
    """Timeouts, bare events and process resumptions in equal parts."""
    def ticker(k: int):
        for i in range(n):
            yield env.timeout(1 + (i * k) % 7)
            ev = env.event()
            ev.succeed()
            yield ev

    for k in range(1, 9):
        env.process(ticker(k))


def sim_rungs(n: int) -> Dict[str, Rung]:
    def run():
        env = Environment()
        _event_mix(env, n)
        return _timed(env.run), env.events_executed

    def step():
        env = Environment()
        _event_mix(env, n)

        def drive():
            while env.peek() != _INF:
                env.step()
        return _timed(drive), env.events_executed

    def window():
        env = ShardEnvironment(0)
        _event_mix(env, n)

        def drive():
            while env.peek() != _INF:
                env.run_window(env.peek() + 16.0)
        return _timed(drive), env.events_executed

    return {"sim.run_ns_per_event": run, "sim.step_ns_per_event": step,
            "sim.window_ns_per_event": window}


# -- bgq (no PAMI above) -----------------------------------------------------

def bgq_rungs(n: int) -> Dict[str, Rung]:
    def inject():
        env = Environment()
        m = BGQMachine(env, 2)
        rfifo = m.node(1).mu.allocate_reception_fifo()
        ififo = m.node(0).mu.allocate_injection_fifo()
        desc = m.node(0).mu.make_descriptor(
            dst=1, nbytes=n * 512, rec_fifo=rfifo.fifo_id)
        ififo.post(desc)
        return _timed(lambda: env.run(until=desc.delivered)), rfifo.packets_received

    def compute():
        seconds = 0.0
        chunks = 0
        for members in (1, 2, 4):  # SMT occupancy changes the chunking
            env = Environment()
            core = Core(env)

            def worker():
                for _ in range(n):
                    yield from core.compute(1000.0)
            for _ in range(members):
                env.process(worker())
            seconds += _timed(env.run)
            chunks += members * n
        return seconds, chunks

    def l2():
        env = Environment()
        node = BGQMachine(env, 1).node(0)
        queue = L2AtomicQueue(env, node.l2)
        thread = node.thread(0)

        def worker():
            for i in range(n):
                yield from queue.enqueue(thread, i)
                yield from queue.dequeue(thread)
        env.process(worker())
        return _timed(env.run), 2 * n

    def build():
        return _timed(lambda: BGQMachine(Environment(), 4)), 1

    return {"bgq.inject_us_per_packet": inject, "bgq.compute_us_per_chunk": compute,
            "bgq.l2_us_per_op": l2, "bgq.machine_build_ms": build}


# -- pami (context to context, no Converse above) ----------------------------

def _two_contexts():
    env = Environment()
    m = BGQMachine(env, 2)
    return (env, m, PamiClient(env, m.node(0)).create_context(),
            PamiClient(env, m.node(1)).create_context())


def _pami_send(n: int, nbytes: int, immediate: bool) -> Tuple[float, float]:
    env, m, ctx0, ctx1 = _two_contexts()
    got = []
    ctx1.register_dispatch(7, lambda ctx, thread, payload: got.append(payload.nbytes))

    def sender():
        thread = m.node(0).thread(0)
        send = ctx0.send_immediate if immediate else ctx0.send
        for _ in range(n):
            yield from send(thread, ctx1.endpoint, 7, nbytes, None)

    def receiver():
        thread = m.node(1).thread(0)
        while len(got) < n:
            yield from ctx1.advance(thread)
    env.process(sender())
    done = env.process(receiver())
    return _timed(lambda: env.run(until=done)), n


def pami_rungs(n: int) -> Dict[str, Rung]:
    def rget():
        env, m, ctx0, _ = _two_contexts()

        def reader():
            thread = m.node(0).thread(0)
            for _ in range(n):
                desc = yield from ctx0.rget(thread, 1, 8192)
                yield desc.delivered
        done = env.process(reader())
        return _timed(lambda: env.run(until=done)), n

    def m2m():
        env = Environment()
        m = BGQMachine(env, 2)
        ctxs, regs = [], []
        for node_id in range(2):
            node = m.node(node_id)
            ctx = PamiClient(env, node).create_context()
            ct = CommThread(env, node.thread(node.n_threads - 1), [ctx])
            ctxs.append(ctx)
            regs.append(ManyToManyRegistry(env, [ctx], [ct]))
        handles = [
            regs[me].register(
                11, [(ctxs[1 - me].endpoint, 32, i) for i in range(n)],
                expected_recvs=n)
            for me in range(2)
        ]

        def starter(me: int):
            yield from regs[me].start(m.node(me).thread(0), handles[me])
        for me in range(2):
            env.process(starter(me))
        done = env.all_of([h.complete for h in handles])
        return _timed(lambda: env.run(until=done)), 2 * n

    def advance_empty():
        env, m, ctx0, _ = _two_contexts()

        def poller():
            thread = m.node(0).thread(0)
            for _ in range(n):
                yield from ctx0.advance(thread)
        done = env.process(poller())
        return _timed(lambda: env.run(until=done)), n

    return {
        "pami.immediate_us_per_msg": lambda: _pami_send(n, 32, True),
        "pami.eager_us_per_msg": lambda: _pami_send(n, 2048, False),
        "pami.rget_us_per_msg": rget,
        "pami.m2m_us_per_msg": m2m,
        "pami.advance_empty_us": advance_empty,
    }


# -- converse ----------------------------------------------------------------

def converse_rungs(n: int) -> Dict[str, Rung]:
    smp = RunConfig(nnodes=2, workers_per_process=4)
    one_node = RunConfig(nnodes=1, workers_per_process=4)

    def trip(config: RunConfig, nbytes: int, trips: int, **kw) -> Rung:
        def rung():
            return pingpong_run(config, nbytes, trips=trips, **kw)["wall_s"], trips
        return rung

    def build():
        config = RunConfig(nnodes=4, workers_per_process=2, comm_threads_per_process=2)
        return _timed(lambda: ConverseRuntime(Environment(), config)), 1

    return {
        "converse.trip_us.32B": trip(smp, 32, n),
        "converse.trip_us.8KB": trip(smp, 8192, max(3, n // 3)),
        "converse.trip_us.128KB": trip(smp, 131072, max(3, n // 16)),
        "converse.trip_us.intranode": trip(one_node, 128, n, dst_rank=3),
        "converse.runtime_build_ms": build,
    }


# -- charm -------------------------------------------------------------------

class _Ping(Chare):
    def __init__(self, idx):
        pass

    def ping(self, hops):
        if hops > 0:
            yield from self.send(1 - self.thisIndex, "ping", 64, hops - 1)
        else:
            self.charm.exit(None)


class _Contributor(Chare):
    def __init__(self, idx):
        pass

    def go(self):
        yield from self.contribute(1, "sum", "ladder", self.charm.exit)


def charm_rungs(n: int) -> Dict[str, Rung]:
    config = RunConfig(nnodes=2, workers_per_process=2)

    def entry():
        charm = Charm(config)
        # one chare on each node, so every hop crosses the torus
        arr = charm.create_array(
            "ping", _Ping, range(2), map_fn=lambda index, ordinal, npes: index * (npes // 2))
        charm.seed(arr, 0, "ping", n)
        return _timed(charm.run), n + 1

    def reduction():
        charm = Charm(config)
        arr = charm.create_array("contrib", _Contributor, range(n))
        for i in range(n):
            charm.seed(arr, i, "go")
        return _timed(charm.run), n

    return {"charm.entry_us_per_msg": entry, "charm.reduction_us_per_contrib": reduction}


# -- namd / fft numerics (what the entry methods call, at the workload's size)

def namd_rungs(seed: int, size: dict) -> Dict[str, Rung]:
    _, app = build_namd(seed, **size)
    system = app.system
    half = system.n_atoms // 2
    pos, q, box = system.positions, system.charges, system.box
    grid = np.zeros(app.K, dtype=np.complex128)

    def forces():
        return _timed(lambda: pair_forces(
            pos[:half], pos[half:], q[:half], q[half:], box, app.cutoff, app.beta)), 1

    def reciprocal():
        return _timed(lambda: pme_reciprocal(pos, q, box, app.K, app.beta, app.order)), 1

    def fft():
        return _timed(lambda: [batch_fft(grid, axis=a) for a in (2, 1, 0)]), 1

    def build():
        return _timed(lambda: build_namd(seed, **size)), 1

    return {"namd.pair_forces_ms": forces, "namd.pme_reciprocal_ms": reciprocal,
            "fft.batch_fft_ms": fft, "namd.app_build_ms": build}


# -- perfmodel ---------------------------------------------------------------

def perfmodel_rungs(n: int) -> Dict[str, Rung]:
    def step_time():
        cfg = NamdRunConfig()
        return _timed(lambda: [namd_step_time(APOA1, 256, cfg) for _ in range(n)]), n
    return {"perfmodel.step_time_us_per_eval": step_time}


# -- the forked shard transport's ring ------------------------------------------

def ring_rungs() -> Dict[str, Rung]:
    def ring():
        r = ShmRing(1 << 16)
        try:
            msg = {"type": "window", "end": 1.0, "externals": [(0.5, (0.5, 0, 1), "x")] * 4}
            n = 200

            def pump():
                for _ in range(n):
                    r.send(msg)
                    r.recv()
            return _timed(pump), n
        finally:
            r.close()
    return {"shard.ring_us_per_msg": ring}


#: workload -> name prefixes of the rungs whose home it is: the workload
#: the README says each rung should move
_HOME = {
    "pingpong_sweep": ("sim.run_", "bgq.inject_", "bgq.l2_", "bgq.machine_", "pami.immediate_",
                       "pami.eager_", "pami.rget_", "pami.advance_", "converse."),
    "pme_m2m": ("bgq.compute_", "pami.m2m_", "charm.", "namd.", "fft.", "trace.", "obs."),
    "shard_m2m": ("sim.window_", "shard."),
    "serve_mix": ("sim.step_", "perfmodel.", "serve."),
}


def is_home(workload: str, metric: str) -> bool:
    return metric.startswith(_HOME[workload])


#: a rung measures seconds per unit; its declared unit says how to print it
_PER_SECOND = {"ns": 1e9, "us": 1e6, "ms": 1e3}

Measured = Tuple[Dict[str, float], Dict[str, int]]  # values, sample counts


def micro(workload: str, seed: int, namd_size: dict, n: int, rung_s: float,
          min_reps: int, units: Dict[str, str]) -> Measured:
    """Every micro rung: ``min_reps`` repeats, and at least ``rung_s``
    seconds of them in its home run.  ``units`` is BENCHMARK.json's."""
    rungs: Dict[str, Rung] = {}
    for group in (sim_rungs(8 * n), bgq_rungs(n), pami_rungs(n), converse_rungs(n),
                  charm_rungs(n), namd_rungs(seed, namd_size), perfmodel_rungs(n),
                  ring_rungs()):
        rungs.update(group)
    values, counts = {}, {}
    for name, rung in rungs.items():
        per_unit, counts[name] = median_per_unit(
            rung, rung_s if is_home(workload, name) else 0.0, min_reps)
        values[name] = _PER_SECOND[units[name]] * per_unit
    return values, counts


# -- telemetry: one pme_m2m op with the Tracer / ProfileSession attached ------

def telemetry(seed: int, scale: str, budget_s: float) -> Tuple[Measured, Dict[str, bool]]:
    wl = PmeM2M(seed, scale)
    wl.setup()
    plain, traced, profiled = [], [], []
    same = {"traced_eq_plain": True, "profiled_eq_plain": True}

    def triple():  # interleaved, so drift hits all three alike
        t0 = perf_counter()
        ref = wl.op()
        plain.append(perf_counter() - t0)
        t0 = perf_counter()
        res = wl.op(trace=True)
        traced.append(perf_counter() - t0)
        same["traced_eq_plain"] &= res == ref
        t0 = perf_counter()
        with ProfileSession("bench-ladder"):
            res = wl.op()
        profiled.append(perf_counter() - t0)
        same["profiled_eq_plain"] &= res == ref

    reps = repeat_within(budget_s, triple)
    base = statistics.median(plain)
    values = {
        "trace.tracer_overhead_ratio": statistics.median(traced) / base,
        "obs.profiler_overhead_ratio": statistics.median(profiled) / base,
    }
    return (values, dict.fromkeys(values, reps)), same


# -- sim.shard / bgq.shardnet -------------------------------------------------

def shard(seed: int, scale: str, budget_s: float, points) -> Tuple[Measured, Dict[str, bool]]:
    """Repeats of: the serial run of the same machine, a traced sharded
    op, and the forked transport."""
    wl = ShardM2M(seed, scale)
    wl.setup()
    rec = spans_mod.Spans()
    serial_s, op_s, fork2_s, results = [], [], [], []
    n_pp = 4 if scale == "tiny" else 60
    fork_config = RunConfig(nnodes=4, workers_per_process=2)

    def one():
        serial_s.append(_timed(wl.serial_op))
        rec.begin_op()
        with rec.instrument(points):
            t0 = perf_counter()
            results.append(wl.op(rec))
            op_s.append(perf_counter() - t0)
        fork2_s.append(run_sharded_pingpong(
            fork_config, 512, 2, trips=n_pp, transport="mp")["wall_s"])

    reps = repeat_within(budget_s, one)
    rows = rec.rows
    result = results[-1]

    def per_op_median(name: str) -> float:
        return statistics.median(spans_mod.per_op(rows, name).values())

    # Imbalance: each window waits for its slowest shard.  The window
    # spans of one barrier are the nshards consecutive run_window rows.
    nshards = wl.size["nshards"]
    windows = [r[spans_mod.END] - r[spans_mod.START] for r in rows
               if r[spans_mod.NAME] == "run:sim.run_window"]
    groups = [windows[i:i + nshards] for i in range(0, len(windows), nshards)]
    imbalance = sum(max(g) for g in groups) / sum(sum(g) / len(g) for g in groups)

    serial = statistics.median(serial_s)
    values = {
        "shard.windows_per_op": result["windows"],
        "shard.events_per_window": result["events"] / result["windows"],
        "shard.window_exec_s": per_op_median("run:sim.run_window"),
        "shard.fabric_flush_s": per_op_median("run:shard.fabric_flush"),
        "shard.peek_s": per_op_median("run:shard.peek"),
        "shard.imbalance": imbalance,
        "shard.serial_op_s": serial,
        "shard.overhead_ratio": statistics.median(op_s) / serial,
        "shard.fork2_op_s": statistics.median(fork2_s),
    }
    return (values, dict.fromkeys(values, reps)), {
        "sharded_eq_serial": all(wl.oracle_ok(r) for r in results)}


# -- serve --------------------------------------------------------------------

def serve(seed: int, scale: str, budget_s: float) -> Tuple[Measured, Dict[str, bool]]:
    """Batches through a fresh service, read from ``Job`` timestamps and
    the service's own metrics registry."""
    t_start = perf_counter()
    wl = ServeMix(seed, scale)
    wl.setup()
    try:
        # Solo cost of the same jobs: each alone through run(until=done).
        solo_s = _timed(lambda: [
            servebench.run_task_solo(build(JobSpec(name=name, build=build)))
            for _ in range(wl.size["copies"]) for name, build in wl.job_mix(None)])
        jobs, batch_s, oks = [], [], []

        def batch():
            t0 = perf_counter()
            result = wl.op()
            batch_s.append(perf_counter() - t0)
            oks.append(wl.oracle_ok(result))
            jobs.extend(wl.jobs)

        batches = repeat_within(budget_s - (perf_counter() - t_start), batch)
        service = wl.service
        slices = service.metrics.get("serve.slice.duration_s")
        snap = service.metrics_snapshot()

        def total(name: str) -> float:
            return sum(s["value"] for s in snap[name]["series"])
        busy, idle = total("serve.worker.busy_s"), total("serve.worker.idle_s")
        makespan = statistics.median(batch_s)
        latency = [j.latency_s() for j in jobs]
        wait = [j.wait_s() for j in jobs]
        values = {
            "serve.jobs_per_s": len(wl.jobs) / makespan,
            "serve.job_latency_p50_s": percentile(latency, 0.50),
            "serve.job_latency_p95_s": percentile(latency, 0.95),
            "serve.queue_wait_p50_s": percentile(wait, 0.50),
            "serve.queue_wait_p95_s": percentile(wait, 0.95),
            "serve.slice_p50_ms": 1e3 * percentile(slices.samples, 0.50),
            "serve.slices_per_job": slices.count / len(jobs),
            "serve.worker_busy_share": busy / (busy + idle),
            "serve.cache_hit_rate": service.cache.stats()["hit_rate"],
            "serve.jobs_failed": sum(j.state != DONE for j in jobs),
            "serve.overhead_ratio": makespan / solo_s,
        }
        counts = dict.fromkeys(values, len(jobs))
        counts.update({"serve.jobs_per_s": batches, "serve.overhead_ratio": batches,
                       "serve.slice_p50_ms": slices.count})
        return (values, counts), {"served_eq_solo": all(oks)}
    finally:
        wl.close()


#: work per repeat of a micro rung and its repeats, per scale
_SIZES = {"full": dict(n=48, min_reps=20), "tiny": dict(n=8, min_reps=3)}


def climb(workload: str, seed: int, scale: str, rung_s: float, deadline: float,
          points, units: Dict[str, str]) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, bool]]:
    """The whole ladder: (values, sample counts, cross-oracle verdicts).

    The micro rungs first, then the heavy rungs at their floor, then the
    heavy rung whose home ``workload`` is with the time left until
    ``deadline`` (a ``perf_counter`` reading).
    """
    size = _SIZES[scale]
    values, counts = micro(workload, seed, PmeM2M.sizes[scale], size["n"], rung_s,
                           size["min_reps"], units)
    heavy = {
        "shard.": lambda budget: shard(seed, scale, budget, points),
        "serve.": lambda budget: serve(seed, scale, budget),
        "trace.": lambda budget: telemetry(seed, scale, budget),
    }
    oracles: Dict[str, bool] = {}
    # sorted(): False first, so the home rung (if any) runs last
    for prefix in sorted(heavy, key=lambda prefix: is_home(workload, prefix)):
        budget = deadline - perf_counter() if is_home(workload, prefix) else 0.0
        (part, part_counts), verdicts = heavy[prefix](budget)
        values.update(part)
        counts.update(part_counts)
        oracles.update(verdicts)
    return values, counts, oracles
