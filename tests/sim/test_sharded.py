"""Sharded conservative-PDES engine: serial-equivalence and isolation.

The contract under test (docs/SCALING.md): for any workload, shard
count, and transport, the sharded engine produces **bit-identical**
simulated times to the single-process serial engine — same final clock
``repr``, same per-message arrival order at shard boundaries.  Plus the
module-global-state audit: two simulations in one process must never
observe each other (ISSUE satellite: concurrent Environments).
"""

import dataclasses
import os
import signal

import pytest

from repro.bgq.network import MEMFIFO, Packet
from repro.bgq.shardnet import (
    ReservationFabric,
    ShardClient,
    ShardedBGQMachine,
    WireShardClient,
    _WireDescriptor,
)
from repro.charm import Charm
from repro.converse import ConverseRuntime, RunConfig
from repro.converse.messages import ConverseMessage
from repro.harness.pingpong import pingpong_run
from repro.harness.shardbench import run_sharded_namd, run_sharded_pingpong
from repro.sim import Environment
from repro.faults import FaultPlan
from repro.pami.context import AMPayload
from repro.sim.shard import (
    ShardCoordinator,
    ShardEnvironment,
    ShardStallError,
    run_sharded_subprocesses,
)

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
    ShardCoordinator([s[0] for s in shards], fabric).run(
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


def test_mp_transport_matches_serial_for_multi_packet_messages():
    """2 KiB eager messages span several packets, and only the last one
    has a completion: the others cross the subprocess transport as
    delivery-only records."""
    config = RunConfig(nnodes=4, workers_per_process=4)
    dst = (config.nnodes - 1) * config.pes_per_node
    serial = pingpong_run(config, 2048, dst_rank=dst, trips=4)
    try:
        sharded = run_sharded_pingpong(config, 2048, 2, trips=4, transport="mp")
    except (ImportError, OSError, PermissionError) as exc:
        pytest.skip(f"shared-memory subprocess transport unavailable: {exc}")
    assert repr(sharded["sim_time"]) == repr(serial["sim_time"])
    assert [repr(t) for t in sharded["rtts"]] == [repr(t) for t in serial["rtts"]]


@pytest.mark.parametrize("client_cls", [ShardClient, WireShardClient], ids=["inproc", "wire"])
def test_one_reservation_replay_emits_per_shard_records(client_cls):
    """The fabric's one replay, fed through either packet codec: an
    unawaited cross-shard packet is one deliver record on the
    destination shard and nothing on the source, an awaited one adds one
    grant on the source, and an awaited same-shard packet is one
    combined record (an unawaited one, a plain deliver).  A quiet packet
    reserves its links and emits no record."""
    env = ShardEnvironment(0)
    client = client_cls(env, ShardedBGQMachine(env, 4, 0, 2))
    fabric = ReservationFabric(4, 2)

    def send(dst, wait):
        payload = AMPayload(1, b"x", 64, (0, 0))
        pkt = Packet(src=0, dst=dst, kind=MEMFIFO, payload_bytes=64,
                     message=_WireDescriptor(payload))
        client.machine.network.inject(0, dst, 64, pkt, wait=wait)
        records = fabric.reserve(client.take_requests())
        return {shard: [rec[0] for rec in recs] for shard, recs in records.items()}, records

    kinds, records = send(3, wait=False)
    assert kinds == {1: ["deliver"]}
    assert isinstance(client._decode(records[1][0][3]), Packet)
    assert send(3, wait=True)[0] == {1: ["deliver"], 0: ["grant"]}
    kinds, records = send(1, wait=True)
    assert kinds == {0: ["both"]}
    assert send(1, wait=False)[0] == {0: ["deliver"]}
    client.apply(records[0])  # the combined record: one external event
    assert env.peek() == records[0][0][1]
    assert list(client._awaiting) == [(0.0, 0, 1)]  # the grant not yet applied
    link_free = dict(fabric.ledger.link_free)
    client.machine.network.inject(0, 3, 512)
    assert fabric.reserve(client.take_requests()) == {}
    assert fabric.ledger.link_free != link_free


def test_dead_shard_child_is_reported_within_seconds():
    """A child that dies without an error frame is named within 10 s,
    not waited on for the 600 s IPC deadline."""

    def build_client(shard_id, nshards):
        os._exit(3)

    def too_slow(signum, frame):
        raise AssertionError("dead shard child not reported within 10 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        with pytest.raises(ShardStallError, match=r"shard 0 child exited with exit code 3"):
            run_sharded_subprocesses(2, build_client, ReservationFabric(4, 2))
    except (ImportError, OSError, PermissionError) as exc:
        pytest.skip(f"shared-memory subprocess transport unavailable: {exc}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _idle_shard(shard_id, nshards, fabric=None):
    """A 4-node shard with one timeout and a ``done`` (on shard 0) that
    nothing ever fires."""
    env = ShardEnvironment(shard_id)
    machine = ShardedBGQMachine(env, 4, shard_id, nshards, fabric=fabric)
    env.timeout(3.0 + shard_id)
    return WireShardClient(env, machine, done=env.event() if shard_id == 0 else None)


def test_mp_stall_reports_every_shard():
    """A stalled `mp` run raises the coordinator's own report: each
    shard's now / next_event / executed and the fabric's pending count,
    line for line what the same run reports in process."""
    try:
        with pytest.raises(ShardStallError) as forked:
            run_sharded_subprocesses(2, _idle_shard, ReservationFabric(4, 2))
    except (ImportError, OSError, PermissionError) as exc:
        pytest.skip(f"shared-memory subprocess transport unavailable: {exc}")
    fabric = ReservationFabric(4, 2)
    clients = [_idle_shard(i, 2, fabric) for i in range(2)]
    with pytest.raises(ShardStallError) as inproc:
        ShardCoordinator([c.env for c in clients], fabric).run(clients[0].done)
    report = str(forked.value).splitlines()
    assert "<done event of shard 0> never triggered" in report[0]
    assert report[1:4] == [
        "  shard 0: now=803.0 next_event=inf executed=1",  # window [3, 803)
        "  shard 1: now=803.0 next_event=inf executed=1",
        "  fabric: pending=0",
    ]
    assert report[1:] == str(inproc.value).splitlines()[1:]


def test_fault_plan_on_a_sharded_machine_is_refused():
    """The injector keys on global counters, so a runtime with a fault
    plan cannot be built over a sharded machine."""
    env = ShardEnvironment(0)
    machine = ShardedBGQMachine(env, 4, 0, 2)
    config = RunConfig(nnodes=4, workers_per_process=1, fault_plan=FaultPlan.profile("drop1"))
    with pytest.raises(NotImplementedError, match="not supported on a sharded machine"):
        ConverseRuntime(env, config, machine=machine)


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

def test_two_charms_mint_independent_uids():
    config = RunConfig(nnodes=1, workers_per_process=2)
    c1 = Charm(config)
    c2 = Charm(config)
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
