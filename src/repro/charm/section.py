"""Section multicast: spanning-tree delivery to a subset of an array.

Charm++'s CkMulticast: a *section* names a subset of a chare array;
multicasts travel down a spanning tree of the PEs hosting members (one
message per tree edge) and fan out locally by pointer exchange — the
pattern NAMD's patch-to-computes position multicast uses.  Contrast
with naive per-element sends: a section multicast costs O(PEs-in-
section) network messages instead of O(members).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .chare import ChareArray
    from .runtime import Charm

__all__ = ["Section"]

#: Fan-out of the spanning tree over PEs.
_TREE_ARITY = 4


class Section:
    """A multicast section over a subset of a chare array."""

    def __init__(self, charm: "Charm", array: "ChareArray", indices: Sequence[Hashable]):
        self.charm = charm
        self.array = array
        self.indices = list(indices)
        if not self.indices:
            raise ValueError("a section needs at least one member")
        missing = [i for i in self.indices if i not in array.elements]
        if missing:
            raise KeyError(f"section members not in array: {missing!r}")
        # Per-Charm counter (not a module global): section ids ride in
        # message payloads, so concurrent Charm instances in one process
        # must each start from 0 (see Charm.__init__).
        self.section_id = next(charm._section_counter)
        #: PEs hosting members, in deterministic order (tree nodes).
        self.pes: List[int] = sorted({array.pe_of(i) for i in self.indices})
        #: Members per PE for the local fan-out.
        self.local_members: Dict[int, List[Hashable]] = {}
        for idx in self.indices:
            self.local_members.setdefault(array.pe_of(idx), []).append(idx)
        charm._register_section(self)
        self.multicasts = 0

    # -- tree shape -----------------------------------------------------------
    def children_of(self, pe_rank: int) -> List[int]:
        pos = self.pes.index(pe_rank)
        out = []
        for k in range(1, _TREE_ARITY + 1):
            c = pos * _TREE_ARITY + k
            if c < len(self.pes):
                out.append(self.pes[c])
        return out

    @property
    def root_pe(self) -> int:
        return self.pes[0]

    # -- multicast -----------------------------------------------------------
    def multicast_from(self, src_pe, method: str, nbytes: int, *args: Any):
        """Deliver ``method(*args)`` to every member (generator).

        One message to the tree root, then one per tree edge; members
        co-located with a tree node receive by local invocation.  Every
        edge uses the section handler's delivery mode (reliable).
        """
        self.multicasts += 1
        hid = self.charm.section_handler_id()
        payload = (self.section_id, method, args, nbytes)
        yield from self.charm.runtime.send(src_pe, self.root_pe, hid, nbytes, payload)

    def _deliver(self, pe, method: str, args: tuple, nbytes: int):
        """Runs on a tree-node PE: forward down, then invoke locally."""
        hid = self.charm.section_handler_id()
        payload = (self.section_id, method, args, nbytes)
        for child in self.children_of(pe.rank):
            yield from self.charm.runtime.send(pe, child, hid, nbytes, payload)
        entry_instr = self.charm.params.charm_entry_instr
        for idx in self.local_members.get(pe.rank, []):
            chare = self.array.element(idx)
            yield from pe.thread.compute(entry_instr)
            result = getattr(chare, method)(*args)
            if result is not None and hasattr(result, "__next__"):
                yield from result
