#!/usr/bin/env python
"""Runtime features tour: custom maps, arrival order, quiescence, reductions.

Shows the Charm++ machinery beyond a plain ring of sends:

* a custom ``(index, ordinal, npes) -> pe`` array map,
* a backlog on one busy PE draining in arrival order,
* quiescence detection over an active message storm (no element knows
  when the storm ends; the detector does),
* a sum reduction over the array, delivered to a callback.

Run:  python examples/runtime_features.py
"""

from repro.bgq.params import CYCLES_PER_US
from repro.charm import Chare, Charm
from repro.converse import RunConfig
from repro.converse.quiescence import QuiescenceDetector

N_WORKERS = 12


def round_robin(index, ordinal, npes):
    """Element i on PE i % npes (the default map is blocked)."""
    return ordinal % npes


def main() -> None:
    charm = Charm(RunConfig(nnodes=2, workers_per_process=4))
    order = []
    totals = []

    class Worker(Chare):
        def __init__(self, idx):
            self.received = 0

        def work(self, tag, amount):
            order.append(tag)
            yield from self.charge(amount)

        def storm(self, hops):
            # Each hop fans out to two peers until the hop budget runs
            # out: a burst whose end no single element can see.
            self.received += 1
            yield from self.charge(5_000)
            if hops > 0:
                for step in (1, 3):
                    peer = (self.thisIndex + step * hops) % N_WORKERS
                    yield from self.send(peer, "storm", 64, hops - 1)

        def report(self):
            yield from self.contribute(self.received, "sum", "storm", totals.append)

    workers = charm.create_array("w", Worker, range(N_WORKERS), map_fn=round_robin)

    class Driver(Chare):
        def __init__(self, idx):
            pass

        def go(self):
            # A backlog on element 0: messages park behind the first
            # one's compute and then run in the order they arrived.
            for i, amount in enumerate((200_000, 150_000, 150_000, 50_000)):
                yield from self.send_to(workers, 0, "work", 64, f"msg{i}", amount)
            yield from self.send_to(workers, 1, "storm", 64, 5)

    # One driver element, placed on the last PE.
    drv = charm.create_array("drv", Driver, [0], map_fn=lambda i, o, npes: npes - 1)
    charm.seed(drv, 0, "go")

    qd = QuiescenceDetector(charm.runtime)
    quiet = qd.start()
    charm.start()
    t_quiet = charm.env.run(until=quiet)
    print("placement:", {i: workers.pe_of(i) for i in range(N_WORKERS)})
    print("execution order on the congested PE:", order)
    assert order == ["msg0", "msg1", "msg2", "msg3"]
    print(f"quiescence declared at {t_quiet / CYCLES_PER_US:.1f} us "
          f"({qd.rounds} detector rounds)")

    for i in range(N_WORKERS):
        charm.seed(workers, i, "report")
    charm.env.run(until=qd.start())
    charm.runtime.stop()
    received = sum(workers.element(i).received for i in range(N_WORKERS))
    print(f"storm messages per element: "
          f"{[workers.element(i).received for i in range(N_WORKERS)]}")
    print(f"sum reduction over the array: {totals[0]} (expected {received})")
    assert totals == [received] == [2 ** 6 - 1]


if __name__ == "__main__":
    main()
