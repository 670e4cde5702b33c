"""Chares and chare arrays: the Charm++ programming model.

Application computation lives in C++-object-like *chares* grouped into
indexed *chare arrays*; the runtime maps elements to PEs ("relieving
the programmer of this burden" [paper §I]) and entry-method
invocations travel as asynchronous messages.  Within an
SMP process an invocation is a pointer exchange; across processes it is
packed and sent through the machine layer.

Entry methods here are ordinary Python methods; a method may be a
generator, in which case the yields are simulation events (typically
``self.charge(instr)`` for compute time or nested sends).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, TYPE_CHECKING

from ..faults.qos import QOS_BEST_EFFORT_FRESH

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Charm

__all__ = ["Chare", "ChareArray", "blocked_map"]


def blocked_map(n_elements: int) -> Callable[[Hashable, int, int], int]:
    """Contiguous blocks of elements per PE (default Charm++ placement).

    Array maps have the Charm++ signature ``(index, ordinal, npes) ->
    pe_rank``.
    """

    def fn(index: Hashable, ordinal: int, npes: int) -> int:
        block = (n_elements + npes - 1) // npes
        return min(ordinal // block, npes - 1)

    return fn


class Chare:
    """Base class for application chares.

    Subclasses define entry methods; the runtime injects ``_array``,
    ``_index`` and ``_pe`` when the element is created.
    """

    _array: "ChareArray"
    _index: Hashable
    _pe: Any  # converse PE

    # -- identity ----------------------------------------------------------
    @property
    def thisIndex(self) -> Hashable:
        return self._index

    @property
    def charm(self) -> "Charm":
        return self._array.charm

    @property
    def env(self):
        return self._array.charm.env

    # -- actions usable inside entry methods ---------------------------------
    def charge(self, instructions: float):
        """Consume compute time on this chare's PE (generator)."""
        result = yield from self._pe.thread.compute(instructions)
        return result

    def send(
        self, index: Hashable, method: str, nbytes: int, *args: Any,
        qos: Optional[int] = None, fresh_key: Any = None,
    ):
        """Invoke ``method(*args)`` on element ``index`` of this array.

        ``qos``/``fresh_key`` select per-send delivery semantics
        (:mod:`repro.faults.qos`); None inherits the entry method's
        registered default (``Charm.set_entry_qos``).
        """
        yield from self._array.send_from(
            self._pe, index, method, nbytes, *args, qos=qos, fresh_key=fresh_key
        )

    def send_to(
        self, array: "ChareArray", index: Hashable, method: str, nbytes: int, *args: Any
    ):
        """Invoke an entry method on an element of another array."""
        yield from array.send_from(self._pe, index, method, nbytes, *args)

    def contribute(self, value: Any, op: str, tag: Hashable, target) -> Any:
        """Contribute to a reduction over this array (generator).

        ``target`` is ``(array, index, method)`` or a plain callable
        invoked at the root PE.
        """
        yield from self.charm.reductions.contribute(
            self._array, self._pe, value, op, tag, target
        )


class ChareArray:
    """An indexed collection of chares mapped over the PEs."""

    def __init__(
        self,
        charm: "Charm",
        name: str,
        factory: Callable[[Hashable], Chare],
        indices: Iterable[Hashable],
        map_fn: Callable[[Hashable, int, int], int],
    ) -> None:
        self.charm = charm
        self.name = name
        self.indices: List[Hashable] = list(indices)
        if not self.indices:
            raise ValueError(f"chare array {name!r} needs at least one element")
        npes = len(charm.runtime.pes)
        self.elements: Dict[Hashable, Chare] = {}
        self.home: Dict[Hashable, int] = {}
        for i, idx in enumerate(self.indices):
            pe_rank = map_fn(idx, i, npes)
            if not 0 <= pe_rank < npes:
                raise ValueError(
                    f"map placed element {idx!r} on invalid PE {pe_rank}"
                )
            chare = factory(idx)
            chare._array = self
            chare._index = idx
            chare._pe = charm.runtime.pes[pe_rank]
            self.elements[idx] = chare
            self.home[idx] = pe_rank

    def __len__(self) -> int:
        return len(self.indices)

    def element(self, index: Hashable) -> Chare:
        return self.elements[index]

    def pe_of(self, index: Hashable) -> int:
        return self.home[index]

    def local_indices(self, pe_rank: int) -> List[Hashable]:
        return [i for i in self.indices if self.home[i] == pe_rank]

    # -- messaging ---------------------------------------------------------
    def send_from(
        self, src_pe, index: Hashable, method: str, nbytes: int, *args: Any,
        qos: Optional[int] = None, fresh_key: Any = None,
    ):
        """Send an entry-method invocation from ``src_pe`` (generator).

        FRESH sends default their supersede flow to ``(array, index,
        method)`` so each destination element is its own flow even when
        many chares share a PE.
        """
        if index not in self.elements:
            raise KeyError(f"no element {index!r} in array {self.name!r}")
        dst_rank = self.home[index]
        payload = (self.name, index, method, args)
        if qos == QOS_BEST_EFFORT_FRESH and fresh_key is None:
            fresh_key = (self.name, index, method)
        yield from self.charm.runtime.send(
            src_pe, dst_rank, self.charm.entry_handler_id(method), nbytes, payload,
            qos=qos, fresh_key=fresh_key,
        )
