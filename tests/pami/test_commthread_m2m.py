"""Tests for communication threads and the many-to-many interface."""

import pytest

from repro.bgq import BGQMachine, BGQParams
from repro.pami import CommThread, ManyToManyRegistry, PamiClient
from repro.sim import Environment


def build(nnodes=2, comm_threads_per_node=1):
    env = Environment()
    m = BGQMachine(env, nnodes)
    clients, contexts, cthreads, registries = [], [], [], []
    for n in range(nnodes):
        client = PamiClient(env, m.node(n))
        ctx = client.create_context()
        cts = []
        for k in range(comm_threads_per_node):
            # Comm threads sit on the last hardware threads of the node.
            hw = m.node(n).thread(m.node(n).n_threads - 1 - k)
            cts.append(CommThread(env, hw, [ctx]))
        clients.append(client)
        contexts.append(ctx)
        cthreads.append(cts)
        registries.append(ManyToManyRegistry(env, [ctx], cts))
    return env, m, contexts, cthreads, registries


def test_commthread_sleeps_then_wakes_on_packet():
    env, m, ctxs, cts, _ = build(2)
    got = []
    ctxs[1].register_dispatch(5, lambda c, t, p: got.append(env.now))

    def sender():
        yield env.timeout(100_000)
        yield from ctxs[0].send_immediate(
            m.node(0).thread(0), ctxs[1].endpoint, 5, 64, None
        )

    env.process(sender())
    env.run(until=300_000)
    assert got and got[0] > 100_000
    ct = cts[1][0]
    assert ct.wakeup_count >= 1
    # While idle, the comm thread consumed no core resources at all.
    members = ct.thread.core._members
    assert len(members) == 0 or sum(members.values()) == 0


def test_commthread_processes_posted_work():
    env, m, ctxs, cts, _ = build(1)
    ran = []

    def work(ctx, thread):
        ran.append(thread.tid)

    def poster():
        yield env.timeout(1000)
        yield from ctxs[0].post_work(m.node(0).thread(0), work)

    env.process(poster())
    env.run(until=200_000)
    assert ran == [cts[0][0].thread.tid]  # ran on the comm thread


def test_commthread_stop():
    env, m, ctxs, cts, _ = build(1)
    ct = cts[0][0]
    env.run(until=50_000)
    assert ct.process.is_alive
    ct.stop()
    env.run(until=100_000)
    assert not ct.process.is_alive


def test_commthread_requires_context():
    env = Environment()
    m = BGQMachine(env, 1)
    with pytest.raises(ValueError):
        CommThread(env, m.node(0).thread(0), [])


def test_m2m_round_trip_all_messages_arrive():
    env, m, ctxs, cts, regs = build(2)
    # Node 0 sends 8 small messages to node 1; node 1 sends 8 back.
    tag = 11
    h0 = regs[0].register(tag, [(ctxs[1].endpoint, 32, i) for i in range(8)], expected_recvs=8)
    h1 = regs[1].register(tag, [(ctxs[0].endpoint, 32, i) for i in range(8)], expected_recvs=8)
    seen0, seen1 = [], []
    h0.on_message = lambda src, data: seen0.append(data)
    h1.on_message = lambda src, data: seen1.append(data)

    def starter(reg, handle, node):
        yield from reg.start(m.node(node).thread(0), handle)

    env.process(starter(regs[0], h0, 0))
    env.process(starter(regs[1], h1, 1))
    env.run(until=env.all_of([h0.complete, h1.complete]))
    assert sorted(seen0) == list(range(8))
    assert sorted(seen1) == list(range(8))
    assert h0.send_done.triggered and h0.recv_done.triggered


def test_m2m_handle_reset_allows_reuse():
    env, m, ctxs, cts, regs = build(2)
    tag = 3
    h0 = regs[0].register(tag, [(ctxs[1].endpoint, 32, 0)], expected_recvs=0)
    h1 = regs[1].register(tag, [], expected_recvs=1)

    def run_once():
        yield from regs[0].start(m.node(0).thread(0), h0)
        yield h1.recv_done
        h0.reset()
        h1.reset()
        yield from regs[0].start(m.node(0).thread(0), h0)
        yield h1.recv_done

    done = env.process(run_once())
    env.run(until=done)
    assert h0.starts == 2


def test_m2m_duplicate_tag_rejected():
    env, m, ctxs, cts, regs = build(1)
    regs[0].register(1, [], expected_recvs=0)
    with pytest.raises(ValueError):
        regs[0].register(1, [], expected_recvs=0)


def test_m2m_empty_handle_completes_immediately():
    env, m, ctxs, cts, regs = build(1)
    h = regs[0].register(2, [], expected_recvs=0)

    def starter():
        yield from regs[0].start(m.node(0).thread(0), h)

    env.process(starter())
    env.run(until=h.complete)
    assert h.send_done.triggered and h.recv_done.triggered


def test_m2m_without_comm_threads_runs_inline():
    env = Environment()
    m = BGQMachine(env, 2)
    clients = [PamiClient(env, m.node(i)) for i in range(2)]
    ctxs = [c.create_context() for c in clients]
    regs = [ManyToManyRegistry(env, [ctx], []) for ctx in ctxs]
    h0 = regs[0].register(4, [(ctxs[1].endpoint, 32, i) for i in range(4)], expected_recvs=0)
    regs[1].register(4, [], expected_recvs=4)
    h1 = regs[1].handles[4]

    def starter():
        yield from regs[0].start(m.node(0).thread(0), h0)

    def receiver():
        thread = m.node(1).thread(0)
        while not h1.recv_done.triggered:
            yield from ctxs[1].advance(thread)
            if not h1.recv_done.triggered:
                yield env.timeout(100)

    env.process(starter())
    env.process(receiver())
    env.run(until=h1.recv_done)
    assert h0.send_done.triggered


def test_m2m_burst_faster_with_more_comm_threads():
    """Message-rate acceleration: 4 comm threads inject a 64-message
    burst faster than 1 (parallel injection FIFOs, §III-E)."""

    def burst_time(nct):
        env, m, ctxs, cts, regs = build(2, comm_threads_per_node=nct)
        sends = [(ctxs[1].endpoint, 32, i) for i in range(64)]
        h0 = regs[0].register(9, sends, expected_recvs=0)
        regs[1].register(9, [], expected_recvs=64)
        h1 = regs[1].handles[9]

        def starter():
            yield from regs[0].start(m.node(0).thread(0), h0)

        env.process(starter())
        env.run(until=h1.recv_done)
        return env.now

    t1 = burst_time(1)
    t4 = burst_time(4)
    assert t1 / t4 > 1.5
