"""Tests for multicast sections and message priorities."""

import pytest

from repro.charm import Chare, Charm, Section
from repro.converse import RunConfig
from repro.converse.messages import ConverseMessage


class Member(Chare):
    def __init__(self, idx):
        self.got = []

    def take(self, value):
        self.got.append(value)


def make(nnodes=2, workers=2, **kw):
    return Charm(RunConfig(nnodes=nnodes, workers_per_process=workers, **kw))


# ---------- sections ------------------------------------------------------------

def test_section_validates_members():
    charm = make()
    arr = charm.create_array("a", Member, range(8))
    with pytest.raises(ValueError):
        Section(charm, arr, [])
    with pytest.raises(KeyError):
        Section(charm, arr, [99])


def test_section_tree_covers_all_pes():
    charm = make(nnodes=2, workers=4)
    arr = charm.create_array("a", Member, range(16))
    sec = charm.create_section(arr, range(16))
    reached = set()
    frontier = [sec.root_pe]
    while frontier:
        pe = frontier.pop()
        assert pe not in reached  # no cycles / duplicates
        reached.add(pe)
        frontier.extend(sec.children_of(pe))
    assert reached == set(sec.pes)


def test_section_multicast_reaches_exactly_members():
    charm = make(nnodes=2, workers=2)
    arr = charm.create_array("a", Member, range(12))
    members = [1, 3, 5, 7, 9]
    sec = charm.create_section(arr, members)

    class Driver(Chare):
        def __init__(self, idx):
            pass

        def go(self):
            yield from sec.multicast_from(self._pe, "take", 64, "hello")

    d = charm.create_array("drv", Driver, [0])
    charm.seed(d, 0, "go")
    charm.start()
    charm.env.run(until=30_000_000)
    charm.runtime.stop()
    for i in range(12):
        expected = ["hello"] if i in members else []
        assert arr.element(i).got == expected, i


# ---------- priorities -----------------------------------------------------------

def test_priority_orders_execution():
    """Messages parked behind a busy PE run urgent-first."""
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
            # Burst of messages with mixed priorities to a single PE;
            # they pile up while the first executes.
            yield from self.send_to(sink, 0, "work", 32, "first")
            for i in range(3):
                yield from self._array.charm.arrays["s"].send_from(
                    self._pe, 0, "work", 32, f"low{i}", priority=10
                )
            yield from self._array.charm.arrays["s"].send_from(
                self._pe, 0, "work", 32, "urgent", priority=-10
            )

    d = charm.create_array("drv", Driver, [1])
    charm.seed(d, 1, "go")
    charm.start()
    charm.env.run(until=60_000_000)
    charm.runtime.stop()
    assert set(order) == {"first", "low0", "low1", "low2", "urgent"}
    # The urgent message overtook the earlier low-priority ones.
    assert order.index("urgent") < order.index("low2")


def test_fifo_within_equal_priority():
    charm = make(nnodes=1, workers=2)
    order = []

    class Sink(Chare):
        def __init__(self, idx):
            pass

        def work(self, tag):
            order.append(tag)

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
    charm.env.run(until=30_000_000)
    charm.runtime.stop()
    assert order == list(range(6))
