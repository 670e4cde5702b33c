"""Tests for the torus network model and messaging unit."""

from types import SimpleNamespace

import pytest

from repro.bgq import BGQMachine, BGQParams, MEMFIFO
from repro.bgq.network import RDMA_DATA, Packet
from repro.sim import Environment, Process


def make_machine(nnodes=2, **kw):
    env = Environment()
    params = BGQParams(**kw)
    m = BGQMachine(env, nnodes, params=params)
    return env, m, params


def test_packet_latency_components():
    """One small packet: nic + hops*hop_latency + serialization."""
    env, m, p = make_machine(2)
    rfifo = m.node(1).mu.allocate_reception_fifo()
    ififo = m.node(0).mu.allocate_injection_fifo()
    desc = m.node(0).mu.make_descriptor(dst=1, nbytes=32, rec_fifo=rfifo.fifo_id)
    ififo.post(desc)
    env.run(until=desc.delivered)
    hops = m.torus.hops(0, 1)
    ser = (32 + p.packet_header_bytes) / (p.link_bandwidth / 1.6e9)
    expected = p.mu_packet_overhead + p.nic_latency + hops * p.hop_latency + ser
    assert env.now == pytest.approx(expected)
    assert len(rfifo) == 1


def test_message_packetized_512B():
    env, m, p = make_machine(2)
    rfifo = m.node(1).mu.allocate_reception_fifo()
    ififo = m.node(0).mu.allocate_injection_fifo()
    desc = m.node(0).mu.make_descriptor(dst=1, nbytes=2048, rec_fifo=rfifo.fifo_id)
    ififo.post(desc)
    env.run(until=desc.delivered)
    assert rfifo.packets_received == 4
    pkts = [rfifo.pop() for _ in range(4)]
    assert [q.seq for q in pkts] == [0, 1, 2, 3]
    assert pkts[-1].is_last and not pkts[0].is_last
    assert sum(q.payload_bytes for q in pkts) == 2048


def test_bandwidth_dominates_large_messages():
    """A 1 MB transfer's time is ~ bytes / link bandwidth."""
    env, m, p = make_machine(2)
    rfifo = m.node(1).mu.allocate_reception_fifo()
    ififo = m.node(0).mu.allocate_injection_fifo()
    nbytes = 1 << 20
    desc = m.node(0).mu.make_descriptor(dst=1, nbytes=nbytes, rec_fifo=rfifo.fifo_id)
    ififo.post(desc)
    env.run(until=desc.delivered)
    bw_cycles = nbytes / (p.link_bandwidth / 1.6e9)
    assert env.now == pytest.approx(bw_cycles, rel=0.35)
    # Effective payload rate must be below the raw link rate (header tax).
    assert nbytes / env.now < p.link_bandwidth / 1.6e9


def test_two_senders_share_a_link():
    """Contention: two flows over the same link take ~2x longer."""
    env = Environment()
    p = BGQParams()
    m = BGQMachine(env, 4, params=p, shape=(4, 1, 1, 1, 1))
    # Routes 0->2 and 1->2: the link 1->2 is shared.
    r2 = m.node(2).mu.allocate_reception_fifo()
    i0 = m.node(0).mu.allocate_injection_fifo()
    i1 = m.node(1).mu.allocate_injection_fifo()
    nbytes = 256 * 1024

    d_solo = m.node(0).mu.make_descriptor(dst=2, nbytes=nbytes, rec_fifo=r2.fifo_id)
    i0.post(d_solo)
    env.run(until=d_solo.delivered)
    t_solo = env.now

    env2 = Environment()
    m2 = BGQMachine(env2, 4, params=p, shape=(4, 1, 1, 1, 1))
    r2b = m2.node(2).mu.allocate_reception_fifo()
    i0b = m2.node(0).mu.allocate_injection_fifo()
    i1b = m2.node(1).mu.allocate_injection_fifo()
    da = m2.node(0).mu.make_descriptor(dst=2, nbytes=nbytes, rec_fifo=r2b.fifo_id)
    db = m2.node(1).mu.make_descriptor(dst=2, nbytes=nbytes, rec_fifo=r2b.fifo_id)
    i0b.post(da)
    i1b.post(db)
    env2.run()
    t_both = env2.now
    assert t_both > 1.6 * t_solo


def test_disjoint_routes_do_not_contend():
    env = Environment()
    p = BGQParams()
    m = BGQMachine(env, 4, params=p, shape=(2, 2, 1, 1, 1))
    nbytes = 128 * 1024
    # 0->1 along dim1 and 2->3 along dim1: disjoint links.
    ra = m.node(1).mu.allocate_reception_fifo()
    rb = m.node(3).mu.allocate_reception_fifo()
    ia = m.node(0).mu.allocate_injection_fifo()
    ib = m.node(2).mu.allocate_injection_fifo()
    da = m.node(0).mu.make_descriptor(dst=1, nbytes=nbytes, rec_fifo=ra.fifo_id)
    db = m.node(2).mu.make_descriptor(dst=3, nbytes=nbytes, rec_fifo=rb.fifo_id)
    ia.post(da)
    ib.post(db)
    env.run(until=env.all_of([da.delivered, db.delivered]))
    t_both = env.now

    env2 = Environment()
    m2 = BGQMachine(env2, 4, params=p, shape=(2, 2, 1, 1, 1))
    ra2 = m2.node(1).mu.allocate_reception_fifo()
    ia2 = m2.node(0).mu.allocate_injection_fifo()
    da2 = m2.node(0).mu.make_descriptor(dst=1, nbytes=nbytes, rec_fifo=ra2.fifo_id)
    ia2.post(da2)
    env2.run(until=da2.delivered)
    assert t_both == pytest.approx(env2.now, rel=0.01)


def test_rget_round_trip_no_remote_software():
    """RDMA read: request out, data streams back, completion fires."""
    env, m, p = make_machine(2)
    ififo = m.node(0).mu.allocate_injection_fifo()
    desc = m.node(0).mu.post_rget(ififo, dst=1, nbytes=8192)
    env.run(until=desc.delivered)
    # Round trip: must exceed 2x one-way small-packet latency plus data
    # serialization, and no reception FIFO was ever needed on node 1.
    one_way = p.nic_latency + p.hop_latency
    assert env.now > 2 * one_way
    assert m.node(1).mu._reception == []


def test_wakeup_signal_on_packet_arrival():
    env, m, p = make_machine(2)
    rfifo = m.node(1).mu.allocate_reception_fifo()
    ififo = m.node(0).mu.allocate_injection_fifo()
    woke = []

    def sleeper():
        thread = m.node(1).thread(0)
        yield from thread.wait_on(rfifo.wakeup)
        woke.append(env.now)

    env.process(sleeper())
    desc = m.node(0).mu.make_descriptor(dst=1, nbytes=64, rec_fifo=rfifo.fifo_id)
    ififo.post(desc)
    env.run()
    assert len(woke) == 1
    assert woke[0] > p.wakeup_latency  # arrival + interrupt delivery


def test_loopback_send_delivers_locally():
    """MU loopback: a node can send to itself (used by processes that
    share a node) without touching any torus link."""
    env, m, p = make_machine(2)
    rfifo = m.node(0).mu.allocate_reception_fifo()
    ififo = m.node(0).mu.allocate_injection_fifo()
    desc = m.node(0).mu.make_descriptor(dst=0, nbytes=64, rec_fifo=rfifo.fifo_id)
    ififo.post(desc)
    env.run(until=desc.delivered)
    assert len(rfifo) == 1
    assert env.now == pytest.approx(p.mu_packet_overhead + p.nic_latency)
    assert m.network.link_utilization() == {}


def test_fifo_pools_bounded():
    env, m, p = make_machine(2)
    mu = m.node(0).mu
    small = BGQParams(mu_injection_fifos=2, mu_reception_fifos=1)
    env2 = Environment()
    m2 = BGQMachine(env2, 2, params=small)
    mu2 = m2.node(0).mu
    mu2.allocate_injection_fifo()
    mu2.allocate_injection_fifo()
    with pytest.raises(RuntimeError):
        mu2.allocate_injection_fifo()
    mu2.allocate_reception_fifo()
    with pytest.raises(RuntimeError):
        mu2.allocate_reception_fifo()


def test_per_fifo_message_rate_bounded_multiple_fifos_scale():
    """Small-message rate: two injection FIFOs ~2x one (paper §III-E)."""
    p = BGQParams()
    nmsgs = 50

    def run_with_fifos(nfifos):
        env = Environment()
        m = BGQMachine(env, 2, params=p)
        rfifo = m.node(1).mu.allocate_reception_fifo()
        fifos = [m.node(0).mu.allocate_injection_fifo() for _ in range(nfifos)]
        descs = []
        for i in range(nmsgs):
            d = m.node(0).mu.make_descriptor(dst=1, nbytes=32, rec_fifo=rfifo.fifo_id)
            fifos[i % nfifos].post(d)
            descs.append(d)
        env.run(until=env.all_of([d.delivered for d in descs]))
        return env.now

    t1 = run_with_fifos(1)
    t2 = run_with_fifos(2)
    assert t1 / t2 > 1.5


# -- packets fly without processes ----------------------------------------

def _fly_one(dst):
    """Inject one 512 B packet from node 0 on an idle 2-node machine;
    returns (engine events it cost, arrival time, reception FIFO)."""
    env, m, p = make_machine(2)
    rfifo = m.node(dst).mu.allocate_reception_fifo()
    env.run()
    before = env.events_executed
    done = m.network.inject(
        Packet(src=0, dst=dst, kind=MEMFIFO, payload_bytes=512, rec_fifo=rfifo.fifo_id)
    )
    landed = []
    done.callbacks = [lambda ev: landed.append(env.now)]
    env.run()
    return env.events_executed - before, landed, rfifo


def test_routed_packet_costs_three_events():
    """Reservation flush, flight timeout, completion: nothing else."""
    events, landed, rfifo = _fly_one(dst=1)
    assert events == 3
    assert landed == [1299.2]  # nic 800 + one hop 64 + 544 B at 1.25 B/cycle
    assert len(rfifo) == 1


def test_loopback_packet_costs_two_events():
    events, landed, rfifo = _fly_one(dst=0)
    assert events == 2
    assert landed == [800.0]
    assert len(rfifo) == 1


def _count_processes(monkeypatch):
    made = []
    init = Process.__init__

    def counting_init(self, env, gen, name=None):
        made.append(name)
        init(self, env, gen, name=name)

    monkeypatch.setattr(Process, "__init__", counting_init)
    return made


def test_rdma_messages_start_no_process_beyond_the_fifo_engines(monkeypatch):
    env, m, p = make_machine(2)
    ififo = m.node(0).mu.allocate_injection_fifo()
    m.node(1).mu.rdma_ififo  # the remote read-response engine, made up front
    env.run()
    made = _count_processes(monkeypatch)
    rget = m.node(0).mu.post_rget(ififo, dst=1, nbytes=8192)
    rput = m.node(0).mu.make_descriptor(dst=1, nbytes=4096, kind=RDMA_DATA)
    ififo.post(rput)
    env.run(until=env.all_of([rget.delivered, rput.delivered]))
    assert made == []
    assert m.network.packets_sent == 1 + 16 + 8


def test_delivered_fires_at_the_last_arrival_after_its_done():
    env, m, p = make_machine(2)
    rfifo = m.node(1).mu.allocate_reception_fifo()
    ififo = m.node(0).mu.allocate_injection_fifo()
    inject = m.network.inject
    order = []

    def recording_inject(packet):
        done = inject(packet)
        done._add_callback(lambda ev: order.append(("done", packet.seq, env.now)))
        return done

    m.network.inject = recording_inject
    desc = m.node(0).mu.make_descriptor(dst=1, nbytes=2048, rec_fifo=rfifo.fifo_id)
    desc.delivered._add_callback(lambda ev: order.append(("delivered", None, env.now)))
    ififo.post(desc)
    env.run()
    assert [kind for kind, _, _ in order] == ["done"] * 4 + ["delivered"]
    last_done, delivered = order[-2], order[-1]
    assert last_done[1] == 3
    assert delivered[2] == last_done[2]


def test_fault_dup_delivers_twice():
    env, m, p = make_machine(2)
    rfifo = m.node(1).mu.allocate_reception_fifo()
    gap = 100.0
    m.network.fault = SimpleNamespace(
        on_route=lambda packet, route: SimpleNamespace(
            drop=False, extra_delay=0.0, dup_gap=gap
        )
    )
    deliver = m.network.deliver
    landed = []

    def recording_deliver(packet):
        landed.append(env.now)
        deliver(packet)

    m.network.deliver = recording_deliver
    done = m.network.inject(
        Packet(src=0, dst=1, kind=MEMFIFO, payload_bytes=512, rec_fifo=rfifo.fifo_id)
    )
    env.run()
    assert done.value.dst == 1
    assert landed == [1299.2, 1299.2 + gap]
    assert len(rfifo) == 2
