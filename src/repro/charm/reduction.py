"""Reductions over chare arrays.

Charm++ reductions combine per-element contributions PE-locally first
(free in SMP — shared address space), then merge partials up a binomial
tree of PEs with small messages, delivering the result at the root to a
callback or an entry method.  NAMD's integration step uses this pattern
every timestep.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple, TYPE_CHECKING
from types import MappingProxyType

if TYPE_CHECKING:  # pragma: no cover
    from .chare import ChareArray
    from .runtime import Charm

__all__ = ["ReductionManager", "REDUCERS"]


def _sum(a, b):
    return a + b


def _max(a, b):
    return a if a >= b else b


def _concat(a, b):
    return list(a) + list(b)


REDUCERS: Dict[str, Callable[[Any, Any], Any]] = MappingProxyType({
    "sum": _sum,
    "max": _max,
    "concat": _concat,
})

#: Size of a partial-reduction tree message on the wire.
_PARTIAL_BYTES = 64


class _State:
    """Progress of one reduction (one array, one tag) on one PE."""

    __slots__ = ("value", "local_count", "children_received", "sent")

    def __init__(self) -> None:
        self.value: Any = None
        self.local_count = 0
        self.children_received = 0
        self.sent = False

    def merge(self, op: Callable, value: Any) -> None:
        self.value = value if self.value is None else op(self.value, value)


class ReductionManager:
    """Array reductions over the Converse runtime."""

    def __init__(self, charm: "Charm") -> None:
        self.charm = charm
        #: (array_name, tag) -> pe_rank -> _State
        self._states: Dict[Tuple[str, Hashable], Dict[int, _State]] = {}
        #: (array_name, tag) -> target (captured at first contribute)
        self._targets: Dict[Tuple[str, Hashable], Any] = {}
        self._ops: Dict[Tuple[str, Hashable], str] = {}
        self._partial_hid = charm.runtime.register_handler(
            self._partial_handler, category="comm"
        )
        self.completed = 0

    # -- tree shape -----------------------------------------------------------
    def _participants(self, array: "ChareArray") -> List[int]:
        return sorted({array.home[i] for i in array.indices})

    def _tree(self, array: "ChareArray", pe_rank: int) -> Tuple[Optional[int], int]:
        """Return (parent_pe_rank_or_None, n_children) in a binary tree
        over the participating PEs."""
        parts = self._participants(array)
        pos = parts.index(pe_rank)
        parent = None if pos == 0 else parts[(pos - 1) // 2]
        n_children = sum(1 for c in (2 * pos + 1, 2 * pos + 2) if c < len(parts))
        return parent, n_children

    # -- contribution (runs on the contributing element's PE) -------------------
    def contribute(self, array, pe, value, op: str, tag, target):
        if op not in REDUCERS:
            raise ValueError(f"unknown reduction op {op!r}")
        key = (array.name, tag)
        states = self._states.setdefault(key, {})
        self._targets.setdefault(key, target)
        self._ops.setdefault(key, op)
        st = states.setdefault(pe.rank, _State())
        st.merge(REDUCERS[op], value)
        st.local_count += 1
        yield from self._maybe_forward(array, pe, key)

    def _maybe_forward(self, array, pe, key):
        st = self._states[key][pe.rank]
        expected_local = len(array.local_indices(pe.rank))
        parent, n_children = self._tree(array, pe.rank)
        if st.sent or st.local_count < expected_local or st.children_received < n_children:
            return
        st.sent = True
        if parent is None:
            yield from self._deliver(array, pe, key, st.value)
        else:
            # The op rides in the payload: a child's partial can reach
            # the parent PE before any local contribute() has registered
            # the op there (message race — see _partial_handler).
            payload = (array.name, key[1], st.value, self._ops[key])
            yield from self.charm.runtime.send(
                pe, parent, self._partial_hid, _PARTIAL_BYTES, payload
            )

    def _partial_handler(self, pe, msg):
        array_name, tag, value, op = msg.payload
        array = self.charm.arrays[array_name]
        key = (array_name, tag)
        # A partial may be the first event for this key on this PE (the
        # local elements haven't contributed yet): learn the op from the
        # message instead of requiring local registration first.
        self._ops.setdefault(key, op)
        st = self._states.setdefault(key, {}).setdefault(pe.rank, _State())
        st.merge(REDUCERS[op], value)
        st.children_received += 1
        yield from self._maybe_forward(array, pe, key)

    def _deliver(self, array, pe, key, value):
        target = self._targets[key]
        # Clean up so the tag can be reused next iteration.
        del self._states[key]
        del self._targets[key]
        del self._ops[key]
        self.completed += 1
        if callable(target):
            result = target(value)
            if result is not None and hasattr(result, "__next__"):
                yield from result
        else:
            tgt_array, index, method = target
            yield from tgt_array.send_from(pe, index, method, _PARTIAL_BYTES, value)
