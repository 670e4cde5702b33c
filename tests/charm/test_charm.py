"""Tests for the Charm++ layer: arrays, entry methods, reductions."""

import pytest

from repro.charm import Chare, Charm
from repro.converse import RunConfig


class Counter(Chare):
    def __init__(self, idx):
        self.value = 0
        self.log = []

    def bump(self, amount):
        self.value += amount

    def ping(self, hops):
        yield from self.charge(1000)
        n = len(self._array)
        nxt = (self.thisIndex + 1) % n
        if hops > 0:
            yield from self.send(nxt, "ping", 64, hops - 1)
        else:
            self.charm.exit(("done", self.thisIndex, self.env.now))


def make(nnodes=2, workers=2, **kw):
    return Charm(RunConfig(nnodes=nnodes, workers_per_process=workers, **kw))


def test_array_creation_and_mapping():
    charm = make()
    arr = charm.create_array("c", Counter, range(8))
    assert len(arr) == 8
    # Blocked map: 8 elements over 4 PEs = 2 each.
    for pe in range(charm.npes):
        assert len(arr.local_indices(pe)) == 2


def test_round_robin_map():
    charm = make()
    arr = charm.create_array(
        "c", Counter, range(8), map_fn=lambda index, ordinal, npes: ordinal % npes
    )
    assert [arr.pe_of(i) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_duplicate_array_name_rejected():
    charm = make()
    charm.create_array("c", Counter, range(2))
    with pytest.raises(ValueError):
        charm.create_array("c", Counter, range(2))


def test_empty_array_rejected():
    charm = make()
    with pytest.raises(ValueError):
        charm.create_array("e", Counter, [])


def test_unknown_map_rejected():
    charm = make()
    with pytest.raises(ValueError):
        charm.create_array("c", Counter, range(4), map_fn="fancy")


def test_entry_method_ring():
    """Messages hop around a ring spanning nodes and processes."""
    charm = make(nnodes=2, workers=2)
    arr = charm.create_array("c", Counter, range(8))
    charm.seed(arr, 0, "ping", 16)
    tag, idx, t = charm.run()
    assert tag == "done"
    assert t > 0


def test_send_to_unknown_element_raises():
    charm = make()
    arr = charm.create_array("c", Counter, range(4))

    class Bad(Chare):
        def __init__(self, idx):
            pass

        def go(self):
            try:
                yield from self.send_to(arr, 99, "bump", 8, 1)
            except KeyError:
                self.charm.exit("caught")

    bad = charm.create_array("bad", Bad, [0])
    charm.seed(bad, 0, "go")
    assert charm.run() == "caught"


def test_broadcast_reaches_every_element():
    charm = make(nnodes=2, workers=2)

    class Root(Chare):
        def __init__(self, idx):
            pass

        def go(self):
            for i in arr.indices:
                yield from self.send_to(arr, i, "bump", 32, 5)

    arr = charm.create_array("c", Counter, range(8))
    root = charm.create_array("root", Root, [0])
    charm.seed(root, 0, "go")
    charm.start()
    charm.env.run(until=50_000_000)
    charm.runtime.stop()
    assert all(arr.element(i).value == 5 for i in range(8))


class Reducer(Chare):
    def __init__(self, idx):
        pass

    def go(self):
        yield from self.contribute(self.thisIndex + 1, "sum", "r1", self.charm._test_target)


def test_reduction_sum_across_pes():
    charm = make(nnodes=2, workers=2)
    arr = charm.create_array("r", Reducer, range(12))

    def at_root(value):
        charm.exit(value)

    charm._test_target = at_root
    for i in range(12):
        charm.seed(arr, i, "go")
    total = charm.run()
    assert total == sum(range(1, 13))
    assert charm.reductions.completed == 1


def test_reduction_to_entry_method():
    charm = make(nnodes=1, workers=2)

    class Sink(Chare):
        def __init__(self, idx):
            pass

        def result(self, value):
            charm.exit(("sink", value))

    arr = charm.create_array("r", Reducer, range(6))
    sink = charm.create_array("sink", Sink, [0])
    charm._test_target = (sink, 0, "result")
    for i in range(6):
        charm.seed(arr, i, "go")
    assert charm.run() == ("sink", 21)


def test_reduction_max_and_concat():
    charm = make(nnodes=1, workers=2)
    results = {}

    class Multi(Chare):
        def __init__(self, idx):
            pass

        def go(self):
            yield from self.contribute(self.thisIndex, "max", "m", lambda v: results.__setitem__("max", v))
            yield from self.contribute([self.thisIndex], "concat", "c", lambda v: results.__setitem__("cat", v))

    arr = charm.create_array("m", Multi, range(5))
    for i in range(5):
        charm.seed(arr, i, "go")
    charm.start()
    charm.env.run(until=20_000_000)
    charm.runtime.stop()
    assert results["max"] == 4
    assert sorted(results["cat"]) == list(range(5))


def test_reduction_unknown_op_rejected():
    charm = make(nnodes=1, workers=1)

    class BadOp(Chare):
        def __init__(self, idx):
            pass

        def go(self):
            try:
                yield from self.contribute(1, "median", "t", lambda v: None)
            except ValueError:
                charm.exit("rejected")

    arr = charm.create_array("b", BadOp, [0])
    charm.seed(arr, 0, "go")
    assert charm.run() == "rejected"


def test_reduction_tag_reusable_after_completion():
    charm = make(nnodes=1, workers=2)
    seen = []

    class Re(Chare):
        def __init__(self, idx):
            pass

        def go(self):
            yield from self.contribute(1, "sum", "same-tag", lambda v: seen.append(v))

    arr = charm.create_array("re", Re, range(4))
    for i in range(4):
        charm.seed(arr, i, "go")
    charm.start()
    charm.env.run(until=10_000_000)
    for i in range(4):
        charm.seed(arr, i, "go")
    charm.env.run(until=30_000_000)
    charm.runtime.stop()
    assert seen == [4, 4]


def test_seed_after_start_wakes_a_parked_pe():
    """A seed after start() wakes its PE out of the idle poll: the entry
    runs without anything else signalling the PE's queue."""
    charm = make(nnodes=1, workers=1)
    arr = charm.create_array("c", Counter, range(1))
    charm.start()
    charm.env.run(until=1_000_000)  # the lone PE is parked idle by now
    charm.seed(arr, 0, "bump", 5)
    charm.env.run(until=2_000_000)
    charm.runtime.stop()
    assert arr.element(0).value == 5


def test_set_entry_category_before_use():
    charm = make()
    charm.set_entry_category("ping", "pme")
    hid = charm.entry_handler_id("ping")
    assert charm.runtime.handler_categories[hid] == "pme"
    with pytest.raises(RuntimeError):
        charm.set_entry_category("ping", "nonbonded")
