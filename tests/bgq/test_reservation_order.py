"""Same-timestamp reservations contend in canonical order.

Two nodes put a packet on the wire at one simulated time, over routes
that share a link.  Whichever event runs first, the flush reserves in
``(inject time, src node, per-node counter)`` order, so the arrivals and
the link ledger's busy-until map do not depend on the event heap's
interleaving (the property the sharded engine's replay relies on).
"""

from repro.bgq.network import MEMFIFO, Packet, TorusNetwork
from repro.bgq.torus import Torus, bgq_partition_shape
from repro.sim import Environment

#: 0 -> 3 runs (0, 2), (2, 3); 2 -> 3 runs (2, 3) alone: the shared link.
SENDS = ((0, 3), (2, 3))
T = 100.0


def contend(order):
    """Both sends injected at ``T``, their events created in ``order``;
    returns ``(src, arrival)`` per landed packet and the busy-until map."""
    env = Environment()
    arrived = []
    net = TorusNetwork(env, Torus(bgq_partition_shape(8)),
                       deliver=lambda pkt: arrived.append((pkt.src, env.now)))
    for src, dst in order:
        pkt = Packet(src=src, dst=dst, kind=MEMFIFO, payload_bytes=512)
        env.timeout(T)._add_callback(
            lambda _ev, src=src, dst=dst, pkt=pkt: net.inject(src, dst, 512, pkt))
    env.run()
    return sorted(arrived), net.ledger.link_free


def test_event_order_does_not_change_reservations():
    torus = Torus(bgq_partition_shape(8))
    assert set(torus.route(*SENDS[0])) & set(torus.route(*SENDS[1])) == {(2, 3)}
    forward, backward = contend(SENDS), contend(SENDS[::-1])
    assert forward == backward
    # Node 0 reserves first, so node 2's packet waits for the shared
    # link and lands last.
    (src0, t0), (src2, t2) = sorted(forward[0], key=lambda a: a[1])
    assert (src0, src2) == (0, 2) and t0 < t2


def test_an_unsorted_flush_turns_the_order_test_red(monkeypatch):
    """Seeded defect, applied here and never in src/: the flush's sort
    is dropped, so the event order decides who takes the shared link."""

    class Unsorted(list):
        def sort(self, *args, **kwargs):
            pass

    init = TorusNetwork.__init__

    def unsorted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._pending = Unsorted()

    monkeypatch.setattr(TorusNetwork, "__init__", unsorted_init)
    assert contend(SENDS) != contend(SENDS[::-1])
