"""RDMA read path + assorted coverage for the PAMI layer."""

import pytest

from repro.bgq import BGQMachine, BGQParams
from repro.pami import CommThread, PamiClient
from repro.sim import Environment


def two_nodes():
    env = Environment()
    m = BGQMachine(env, 2)
    c0 = PamiClient(env, m.node(0))
    c1 = PamiClient(env, m.node(1))
    return env, m, c0.create_context(), c1.create_context()


def test_rget_completes_without_remote_software():
    env, m, ctx0, ctx1 = two_nodes()
    done = []

    def getter():
        desc = yield from ctx0.rget(m.node(0).thread(0), src_node=1, nbytes=32768)
        yield desc.delivered
        done.append(env.now)

    env.process(getter())
    env.run()
    assert done and done[0] > 0
    assert ctx0.rgets == 1
    # Node 1's MU served the read: nothing reached its software.
    assert len(ctx1.rfifo) == 0
    assert ctx1.messages_received == 0


def test_rget_time_scales_with_size():
    def one(nbytes):
        env, m, ctx0, _ = two_nodes()
        t = {}

        def getter():
            desc = yield from ctx0.rget(m.node(0).thread(0), 1, nbytes)
            yield desc.delivered
            t["v"] = env.now

        env.process(getter())
        env.run()
        return t["v"]

    assert one(1 << 20) > 4 * one(1 << 16)


def test_commthread_drives_multiple_contexts():
    env = Environment()
    m = BGQMachine(env, 2)
    client0 = PamiClient(env, m.node(0))
    client1 = PamiClient(env, m.node(1))
    ctx_a = client1.create_context()
    ctx_b = client1.create_context()
    ct = CommThread(env, m.node(1).thread(60), [ctx_a, ctx_b])
    ctx0 = client0.create_context()
    got = []
    ctx_a.register_dispatch(1, lambda c, t, p: got.append(("a", p.data)))
    ctx_b.register_dispatch(1, lambda c, t, p: got.append(("b", p.data)))

    def sender():
        thread = m.node(0).thread(0)
        yield from ctx0.send_immediate(thread, ctx_a.endpoint, 1, 16, "x")
        yield from ctx0.send_immediate(thread, ctx_b.endpoint, 1, 16, "y")

    env.process(sender())
    env.run(until=1_000_000)
    ct.stop()
    assert sorted(got) == [("a", "x"), ("b", "y")]


def test_network_link_utilization_reports_busy_links():
    env, m, ctx0, ctx1 = two_nodes()

    def sender():
        yield from ctx0.send(m.node(0).thread(0), ctx1.endpoint, 1, 4096, None)

    ctx1.register_dispatch(1, lambda *a: None)
    env.process(sender())
    env.run(until=200_000)
    assert len(m.network._link_free) >= 1  # busy-until horizon per link
