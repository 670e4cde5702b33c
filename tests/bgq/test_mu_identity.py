"""The callback-driven injection FIFO against the generator engine it
replaced, kept here as the reference (as ``tests/namd/test_kernel_identity.py``
keeps the loop kernels).

Both engines take the same burst on two injection FIFOs — multi-packet
memory-FIFO messages, an rget (request out, RDMA data streamed back by
the remote MU's own FIFO), a directly posted RDMA-data descriptor, a
0-byte descriptor, and posts that land while the engine is busy — and
must put every packet on the wire at exactly the same time, reserve
every packet's links to exactly the same arrival, land every observed
packet then, complete the same descriptors at the same times, and run
the same number of events, less the one init event each reference
FIFO's process costs and the flight of each quiet packet (an RDMA data
packet before its message's last, which the reference still flies).
"""

import math
from collections import deque

import pytest

from repro.bgq import BGQMachine, BGQParams, MEMFIFO
from repro.bgq import mu as mu_mod
from repro.bgq.network import RDMA_DATA, Packet
from repro.sim import Environment


class GeneratorInjectionFifo:
    """The generator engine as it stood before the callback engine."""

    def __init__(self, env, mu, fifo_id, params):
        self.env = env
        self.mu = mu
        self.fifo_id = fifo_id
        self.params = params
        self._queue = deque()
        self._work = env.event()
        self.descriptors_processed = 0
        self.packets_injected = 0
        self.occupancy_hwm = 0
        env.process(self._engine(), name=f"mu{mu.node_id}-ififo{fifo_id}")

    def __len__(self):
        return len(self._queue)

    def post(self, desc):
        self._queue.append(desc)
        depth = len(self._queue)
        if depth > self.occupancy_hwm:
            self.occupancy_hwm = depth
        if not self._work.triggered:
            self._work.succeed()

    def _engine(self):
        env = self.env
        p = self.params
        while True:
            if not self._queue:
                self._work = env.event()
                yield self._work
                continue
            desc = self._queue.popleft()
            self.descriptors_processed += 1
            npackets = max(1, math.ceil(desc.nbytes / p.packet_payload_max))
            awaited = desc.kind in (MEMFIFO, RDMA_DATA)
            remaining = desc.nbytes
            for seq in range(npackets):
                chunk = min(p.packet_payload_max, remaining) if remaining else 0
                remaining -= chunk
                yield env.timeout(p.mu_packet_overhead)
                pkt = Packet(
                    src=self.mu.node_id,
                    dst=desc.dst,
                    kind=desc.kind,
                    payload_bytes=chunk,
                    rec_fifo=desc.rec_fifo,
                    message=desc,
                    seq=seq,
                    is_last=(seq == npackets - 1),
                )
                last_arrival = self.mu.network.inject(
                    pkt.src, pkt.dst, chunk, pkt, pkt.is_last and awaited
                )
                self.packets_injected += 1
            if not desc.injected.triggered:
                desc.injected.succeed()
            if awaited:
                last_arrival._add_callback(desc._on_last_arrival)


def _burst():
    """Run the burst on a fresh 4-node machine; every trace it leaves."""
    env = Environment()
    m = BGQMachine(env, 4, params=BGQParams())
    net = m.network
    injected, reserved, arrived, completed = [], [], [], []

    inject = net.inject

    def traced_inject(src, dst, nbytes, packet=None, wait=False):
        # A quiet packet has no Packet: it is known by its place alone.
        what = None if packet is None else (packet.kind, packet.seq, packet.is_last)
        injected.append((env.now, src, dst, nbytes, what))
        return inject(src, dst, nbytes, packet, wait)

    net.inject = traced_inject
    reserve = net.ledger.reserve

    def traced_reserve(route, nbytes, t_inject):
        arrival = reserve(route, nbytes, t_inject)
        reserved.append((t_inject, route, nbytes, arrival))
        return arrival

    net.ledger.reserve = traced_reserve
    deliver = net.deliver

    def traced_deliver(packet):
        arrived.append((env.now, packet.src, packet.seq, packet.dst, packet.kind,
                        packet.is_last))
        deliver(packet)

    net.deliver = traced_deliver

    mu0, mu1 = m.node(0).mu, m.node(1).mu
    rfifos = {n: m.node(n).mu.allocate_reception_fifo() for n in range(4)}
    a = mu0.allocate_injection_fifo()
    b = mu0.allocate_injection_fifo()
    c = mu1.allocate_injection_fifo()

    def watch(tag, desc):
        for name in ("injected", "delivered"):
            ev = getattr(desc, name)
            ev.callbacks = (ev.callbacks or []) + [
                lambda _e, name=name: completed.append((tag, name, env.now))
            ]

    def post(tag, fifo, mu, dst, nbytes, kind=MEMFIFO):
        desc = mu.make_descriptor(dst, nbytes, kind=kind, rec_fifo=0)
        watch(tag, desc)
        fifo.post(desc)

    # At time 0, before either engine has run: a queue on each FIFO.
    post("a-3pkt", a, mu0, 1, 1300)
    post("a-0B", a, mu0, 2, 0)
    post("b-rdma", b, mu0, 3, 1100, kind=RDMA_DATA)
    watch("b-rget", mu0.post_rget(b, 1, 2000))
    post("c-loop", c, mu1, 1, 700)

    def late():
        # Mid-message on ``a`` (its engine is busy), then after ``b``
        # has drained (its engine idles and must restart).
        yield env.timeout(30.0)
        post("a-busy", a, mu0, 3, 600)
        post("b-busy", b, mu0, 2, 512)
        yield env.timeout(4_000.0)
        post("b-idle", b, mu0, 1, 1025)
        post("a-idle-0B", a, mu0, 1, 0)

    env.process(late())
    env.run()
    fifos = [a, b, c, mu1._rdma_ififo]
    stats = [(f.descriptors_processed, f.packets_injected, f.occupancy_hwm)
             for f in fifos]
    stats.append([m.node(n).mu.packets_received for n in range(4)])
    assert all(len(r) == r.packets_received for r in rfifos.values())
    return injected, reserved, arrived, completed, stats, env.events_executed


@pytest.fixture
def reference(monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(mu_mod, "InjectionFifo", GeneratorInjectionFifo)
        return _burst()


def _quiet(kind, is_last):
    return kind == RDMA_DATA and not is_last


#: The burst's quiet packets: 2 of the 3-packet RDMA descriptor's and 3
#: of the 4-packet rget's data stream.
QUIET = 5


def test_callback_engine_matches_the_generator_engine(reference):
    injected, reserved, arrived, completed, stats, events = _burst()
    ref_injected, ref_reserved, ref_arrived, ref_completed, ref_stats, ref_events = reference
    quiet = [i for i, (*_, what) in enumerate(ref_injected) if _quiet(what[0], what[2])]
    assert len(quiet) == QUIET
    assert injected == [
        (*rec[:4], None) if i in quiet else rec for i, rec in enumerate(ref_injected)
    ]
    # Every packet, quiet or not, reserves its links to the same arrival
    # in the same order; the observed ones land then.
    assert len(reserved) == len(injected) - sum(src == dst for _, src, dst, *_ in injected)
    assert reserved == ref_reserved
    assert arrived == [a for a in ref_arrived if not _quiet(*a[4:])]
    assert completed == ref_completed
    assert stats == ref_stats
    # Four FIFOs (a, b, c and node 1's rget-response FIFO) each saved
    # the reference process's init event, and each quiet packet its
    # flight; nothing else moved.
    assert events == ref_events - 4 - QUIET


def test_burst_covers_every_case(reference):
    """The burst is what the module docstring says it is."""
    injected, _, _, completed, _, _ = reference
    kinds = {what[0] for *_, what in injected}
    assert kinds == {"memfifo", "rget-request", "rdma-data"}
    assert any(n == 0 for *_, n, _ in injected)  # the 0-byte descriptor
    assert max(what[1] for *_, what in injected) >= 3  # multi-packet
    assert any(src == dst for _, src, dst, *_ in injected)  # loopback
    tags = {t for t, _, _ in completed}
    assert {"a-busy", "b-idle", "b-rget", "a-idle-0B"} <= tags
