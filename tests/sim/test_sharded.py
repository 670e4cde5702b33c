"""Sharded conservative-PDES engine: serial-equivalence and isolation.

The contract under test (docs/SCALING.md): for any workload, shard
count, and transport, the sharded engine produces **bit-identical**
simulated times to the single-process serial engine — same final clock
``repr``, same per-message arrival order at shard boundaries.  Plus the
module-global-state audit: two simulations in one process must never
observe each other (ISSUE satellite: concurrent Environments).
"""

import dataclasses

import pytest

from repro.charm import Charm
from repro.converse import ConverseRuntime, RunConfig
from repro.converse.messages import ConverseMessage
from repro.harness.pingpong import pingpong_run
from repro.harness.shardbench import run_sharded_namd, run_sharded_pingpong
from repro.sim import Environment

SHARD_COUNTS = (1, 2, 4)


# -- fuzz matrix: bit-identical sim times vs serial -------------------------

@pytest.mark.parametrize("nbytes", [16, 2048])
@pytest.mark.parametrize("nshards", SHARD_COUNTS)
def test_pingpong_sharded_matches_serial(nshards, nbytes):
    config = RunConfig(nnodes=4, workers_per_process=4)
    dst = (config.nnodes - 1) * config.pes_per_node
    serial = pingpong_run(config, nbytes, dst_rank=dst, trips=6)
    sharded = run_sharded_pingpong(config, nbytes, nshards, trips=6)
    assert repr(sharded["sim_time"]) == repr(serial["sim_time"])
    assert [repr(t) for t in sharded["rtts"]] == [repr(t) for t in serial["rtts"]]


def _serial_namd(seed):
    from repro.harness.workloads import namd_run

    return namd_run(True, 1, 256, 4, 1, 1, seed=seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [17, 42])
@pytest.mark.parametrize("nshards", SHARD_COUNTS)
def test_namd_sharded_matches_serial(nshards, seed):
    """Mini-NAMD (m2m PME, reductions, RDMA) across the fuzz matrix."""
    serial = _serial_namd(seed)
    sharded = run_sharded_namd(True, 1, 256, 4, 1, 1, nshards, seed=seed)
    assert repr(sharded["sim_time"]) == repr(serial["sim_time"])
    assert [repr(t) for t in sharded["step_times"]] == [
        repr(t) for t in serial["step_times"]
    ]


# -- shard-boundary message ordering ----------------------------------------

def _all_to_one(build):
    """Every PE sends one message to rank 0; return ordered arrivals.

    ``build(record_arrivals)`` returns (runner, finisher); arrivals are
    (repr(sim_time), src_rank) tuples in delivery order — the exact
    observable a shard-boundary ordering bug would corrupt, since the
    senders live on different shards but their messages interleave at
    one destination.
    """
    arrivals = []
    run = build(arrivals)
    run()
    return arrivals


def _setup_all_to_one(rt, env, arrivals, expected, nbytes=64):
    done = env.event()

    def collect(pe, msg):
        arrivals.append((repr(env.now), msg.payload))
        if len(arrivals) >= expected:
            done.succeed()
        return
        yield  # pragma: no cover - makes `collect` a generator handler

    def kick(pe, msg):
        yield from pe.send(0, hid_collect, nbytes, pe.rank)

    hid_collect = rt.register_handler(collect)
    hid_kick = rt.register_handler(kick)
    for rank in range(1, expected + 1):
        pe = rt.pes[rank]
        if pe is not None:
            pe.local_q.append(ConverseMessage(hid_kick, 0, None, rank, rank))
    return done


@pytest.mark.parametrize("nshards", SHARD_COUNTS)
def test_boundary_arrival_order_matches_serial(nshards):
    """Concurrent cross-shard sends to one PE keep the serial order."""
    config = RunConfig(nnodes=4, workers_per_process=4)
    expected = config.nnodes * config.pes_per_node - 1

    env = Environment()
    rt = ConverseRuntime(env, config)
    serial_arrivals = []
    done = _setup_all_to_one(rt, env, serial_arrivals, expected)
    rt.run_until(done)
    assert len(serial_arrivals) == expected

    from repro.bgq.shardnet import ReservationFabric, ShardedBGQMachine
    from repro.sim.shard import ShardCoordinator, ShardEnvironment

    fabric = ReservationFabric(config.nnodes, nshards)
    shard_arrivals = []
    shards = []
    for sid in range(nshards):
        senv = ShardEnvironment(sid)
        machine = ShardedBGQMachine(senv, config.nnodes, sid, nshards, fabric=fabric)
        srt = ConverseRuntime(senv, config, machine=machine)
        sdone = _setup_all_to_one(
            srt, senv, shard_arrivals if sid == 0 else [], expected
        )
        srt.start()
        shards.append((senv, srt, sdone))
    ShardCoordinator([s[0] for s in shards], fabric.window, fabric).run(
        shards[0][2]
    )
    for _, srt, _ in shards:
        srt.stop()
    assert shard_arrivals == serial_arrivals


# -- subprocess transport ----------------------------------------------------

def test_mp_transport_matches_serial():
    config = RunConfig(nnodes=4, workers_per_process=4)
    dst = (config.nnodes - 1) * config.pes_per_node
    serial = pingpong_run(config, 512, dst_rank=dst, trips=6)
    try:
        sharded = run_sharded_pingpong(config, 512, 2, trips=6, transport="mp")
    except (ImportError, OSError, PermissionError) as exc:
        pytest.skip(f"shared-memory subprocess transport unavailable: {exc}")
    assert repr(sharded["sim_time"]) == repr(serial["sim_time"])
    assert [repr(t) for t in sharded["rtts"]] == [repr(t) for t in serial["rtts"]]


# -- rank -> endpoint formula -------------------------------------------------

@pytest.mark.parametrize(
    "config",
    [
        RunConfig(nnodes=2, workers_per_process=4),
        RunConfig(nnodes=2, workers_per_process=4, comm_threads_per_process=1),
        RunConfig(nnodes=2, workers_per_process=4, comm_threads_per_process=2),
        RunConfig(nnodes=2, processes_per_node=2, workers_per_process=2),
        RunConfig(
            nnodes=2, processes_per_node=2, workers_per_process=2,
            comm_threads_per_process=1,
        ),
    ],
    ids=["smp", "smp+1ct", "smp+2ct", "2proc", "2proc+ct"],
)
def test_rank_endpoint_matches_constructed_pes(config):
    """The closed-form mapping equals the object-derived endpoints.

    ``rank_endpoint`` is what sharded mirrors use to address PEs they
    did not construct; it must agree with the endpoint every locally
    constructed PE actually has, for every process/commthread layout.
    """
    env = Environment()
    rt = ConverseRuntime(env, config)
    for rank, pe in enumerate(rt.pes):
        expected = pe.process.inbound_endpoint(pe.local_index)
        assert rt.rank_endpoint(rank) == expected


# -- module-global-state isolation (concurrent Environments) -----------------

def test_two_charms_mint_independent_section_ids_and_uids():
    config = RunConfig(nnodes=1, workers_per_process=2)
    c1 = Charm(config)
    c2 = Charm(config)
    assert next(c1._section_counter) == 0
    assert next(c2._section_counter) == 0
    assert c1.next_uid() == 1
    assert c2.next_uid() == 1


def test_two_l2_units_mint_independent_anon_queue_names():
    from repro.bgq.l2 import L2AtomicUnit
    from repro.queues import L2AtomicQueue

    e1, e2 = Environment(), Environment()
    l2a, l2b = L2AtomicUnit(e1), L2AtomicUnit(e2)
    qa = L2AtomicQueue(e1, l2a)
    qb = L2AtomicQueue(e2, l2b)
    assert qa.name == qb.name  # both first anonymous queue in their sim


def test_two_cores_mint_independent_member_ids():
    from repro.bgq.core import Core

    e1, e2 = Environment(), Environment()
    c1, c2 = Core(e1), Core(e2)
    m1 = c1.register(1.0)
    m2 = c2.register(1.0)
    assert m1.id == m2.id == 0


def test_two_ffts_in_different_charms_get_equal_uids():
    """FFT3D uids come from the owning Charm, not a class-level global
    — two concurrent simulations must mint the same uid sequence or
    their m2m tags (which embed the uid) would diverge between a
    sharded mirror and the serial engine."""
    from repro.fft.fft3d import FFT3D

    config = RunConfig(nnodes=1, workers_per_process=2)
    uids = []
    for _ in range(2):
        charm = Charm(config)
        fft = FFT3D(charm, n=4, use_m2m=False)
        uids.append(fft.uid)
    assert uids[0] == uids[1]
