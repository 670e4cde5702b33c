"""Scheduler order: messages to one PE run in arrival order."""

from repro.charm import Chare, Charm
from repro.converse import RunConfig


def make(nnodes=2, workers=2, **kw):
    return Charm(RunConfig(nnodes=nnodes, workers_per_process=workers, **kw))


def test_fifo_within_equal_priority():
    """A backlog parked behind a busy PE drains in arrival order."""
    charm = make(nnodes=1, workers=2)
    order = []

    class Sink(Chare):
        def __init__(self, idx):
            pass

        def work(self, tag):
            order.append(tag)
            yield from self.charge(10_000)

    sink = charm.create_array("s", Sink, [0])

    class Driver(Chare):
        def __init__(self, idx):
            pass

        def go(self):
            for i in range(6):
                yield from self.send_to(sink, 0, "work", 32, i)

    d = charm.create_array("drv", Driver, [1])
    charm.seed(d, 1, "go")
    charm.start()
    charm.env.run(until=60_000_000)
    charm.runtime.stop()
    assert order == list(range(6))
