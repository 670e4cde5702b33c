"""Message-race tests for the reduction tree.

The race this PR fixes: a partial can dispatch on a PE at a moment when
the manager's operator registry has no entry for its reduction — either
because no local contribute() has registered it yet, or because a
*late* copy (a duplicated message on an unreliable network) lands after
``_deliver`` already wiped the tag's entries.  The partial handler used
to look the operator up in that registry (``self._ops[key]`` —
reduction.py:125 pre-fix), so the stray partial raised KeyError; the op
now rides in the partial payload.
"""

import pytest

from repro.charm import Chare, Charm
from repro.converse import RunConfig
from repro.faults import FaultPlan, FaultRates


def make(nnodes=2, workers=2, **kw):
    return Charm(RunConfig(nnodes=nnodes, workers_per_process=workers, **kw))


# -- the race itself --------------------------------------------------------


def test_late_duplicate_partial_does_not_crash():
    """A duplicated partial dispatches after its reduction completed.

    Every link duplicates, and the reliable transport is forced off so
    the second copy of the child's partial really reaches the handler.
    The first copy completes the reduction and ``_deliver`` deletes the
    tag's registry entries; the late copy then dispatches against an
    empty registry.  Pre-fix: ``KeyError: ('r', 't')`` out of
    ``_partial_handler``.  Post-fix: the op travels in the payload and
    the stray copy parks harmlessly; the result is delivered once.
    """
    plan = FaultPlan(seed=0, name="dup-partials", link=FaultRates(duplicate=1.0))
    charm = Charm(
        RunConfig(nnodes=2, workers_per_process=1, fault_plan=plan, reliable=False)
    )
    seen = []

    class Re(Chare):
        def __init__(self, idx):
            pass

        def go(self):
            yield from self.contribute(
                self.thisIndex + 1, "sum", "t", lambda v: seen.append(v)
            )

    arr = charm.create_array("r", Re, range(2))
    assert arr.pe_of(0) == 0 and arr.pe_of(1) == 1
    charm.seed(arr, 0, "go")
    charm.seed(arr, 1, "go")
    charm.start()
    charm.env.run(until=30_000_000)
    charm.runtime.stop()
    assert seen == [3]
    assert charm.reductions.completed == 1


def test_partial_arriving_before_local_contribute():
    """A child's partial reaches the root PE before the root contributes.

    The partial must park in the tree state (learning the operator from
    the message, not from a local registration) and the reduction
    completes once the root's own contribution arrives.
    """
    charm = make(nnodes=1, workers=2)
    seen = []

    class Re(Chare):
        def __init__(self, idx):
            pass

        def go(self):
            yield from self.contribute(
                self.thisIndex + 1, "sum", "tag", lambda v: seen.append(v)
            )

    arr = charm.create_array("race", Re, range(2))
    # Blocked map: element 0 -> PE 0 (tree root), element 1 -> PE 1.
    assert arr.pe_of(0) == 0 and arr.pe_of(1) == 1
    # Only the child PE contributes; its partial crosses to PE 0 where
    # *nothing* has registered the reduction yet.
    charm.seed(arr, 1, "go")
    charm.start()
    charm.env.run(until=10_000_000)
    assert seen == []  # parked: root hasn't contributed
    # Now the root contributes; the reduction must complete.
    charm.seed(arr, 0, "go")
    charm.env.run(until=30_000_000)
    charm.runtime.stop()
    assert seen == [3]
    assert charm.reductions.completed == 1


def test_partial_first_leaves_no_stale_state():
    """After the racy reduction completes, the tag is clean for reuse."""
    charm = make(nnodes=1, workers=2)
    seen = []

    class Re(Chare):
        def __init__(self, idx):
            pass

        def go(self):
            yield from self.contribute(1, "sum", "t", lambda v: seen.append(v))

    arr = charm.create_array("r", Re, range(2))
    charm.seed(arr, 1, "go")
    charm.start()
    charm.env.run(until=10_000_000)
    charm.seed(arr, 0, "go")
    charm.env.run(until=30_000_000)
    mgr = charm.reductions
    assert seen == [2]
    assert ("r", "t") not in mgr._states
    assert ("r", "t") not in mgr._targets
    assert ("r", "t") not in mgr._ops
    # Same tag again, same race order: still works.
    charm.seed(arr, 1, "go")
    charm.env.run(until=40_000_000)
    charm.seed(arr, 0, "go")
    charm.env.run(until=60_000_000)
    charm.runtime.stop()
    assert seen == [2, 2]


def test_tag_reuse_across_consecutive_reductions_spanning_nodes():
    """Back-to-back same-tag reductions whose partials cross the torus."""
    charm = make(nnodes=2, workers=2)
    seen = []

    class Re(Chare):
        def __init__(self, idx):
            pass

        def go(self):
            yield from self.contribute(
                self.thisIndex, "sum", "iter", lambda v: seen.append(v)
            )

    arr = charm.create_array("re", Re, range(8))
    for i in range(8):
        charm.seed(arr, i, "go")
    charm.start()
    charm.env.run(until=30_000_000)
    for i in range(8):
        charm.seed(arr, i, "go")
    charm.env.run(until=80_000_000)
    charm.runtime.stop()
    assert seen == [sum(range(8))] * 2
    assert charm.reductions.completed == 2


# -- tree-shape properties --------------------------------------------------


def tree_of(charm, arr):
    mgr = charm.reductions
    parts = mgr._participants(arr)
    return mgr, parts, {pe: mgr._tree(arr, pe) for pe in parts}


class Leaf(Chare):
    def __init__(self, idx):
        pass


@pytest.mark.parametrize("n_parts", [1, 2, 3, 5, 6, 7, 8])
def test_tree_shape_over_participant_counts(n_parts):
    """Every non-root has a parent that counts it as a child; the child
    counts reported by _tree sum to exactly the non-root population."""
    charm = make(nnodes=2, workers=4)  # 8 PEs
    # Round-robin over n_parts elements puts one element on each of the
    # first n_parts PEs.
    arr = charm.create_array("t", Leaf, range(n_parts), map_fn=lambda i, o, n: o % n)
    mgr, parts, tree = tree_of(charm, arr)
    assert len(parts) == n_parts
    root = parts[0]
    assert tree[root][0] is None
    for pe in parts[1:]:
        parent, _ = tree[pe]
        assert parent in parts and parent != pe
    # n_children at each PE == number of PEs naming it as parent.
    for pe in parts:
        naming = sum(1 for q in parts if q != root and tree[q][0] == pe)
        assert tree[pe][1] == naming
    assert sum(tree[pe][1] for pe in parts) == n_parts - 1


def test_tree_shape_with_non_contiguous_participants():
    """Participant PEs need not be dense or start at rank 0."""
    charm = make(nnodes=2, workers=4)
    ranks = [1, 3, 6]
    arr = charm.create_array(
        "sparse", Leaf, range(3), map_fn=lambda idx, ordinal, npes: ranks[ordinal]
    )
    mgr, parts, tree = tree_of(charm, arr)
    assert parts == ranks
    assert tree[1] == (None, 2)  # root: children at positions 1 and 2
    assert tree[3] == (1, 0)
    assert tree[6] == (1, 0)


def test_tree_single_participant_is_trivial_root():
    charm = make(nnodes=1, workers=2)
    arr = charm.create_array("solo", Leaf, [0], map_fn=lambda i, o, n: 1)
    mgr, parts, tree = tree_of(charm, arr)
    assert parts == [1]
    assert tree[1] == (None, 0)
