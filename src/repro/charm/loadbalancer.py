"""Object-to-PE maps and a measurement-based load balancer.

"In Charm++, application computation is mapped to C++ objects called
chares and the load-balancer maps these objects to processors relieving
the programmer of this burden" [paper §I].  The map functions here have
the Charm++ array-map signature ``(index, ordinal, npes) -> pe_rank``.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Sequence, Tuple

__all__ = ["blocked_map", "round_robin_map", "greedy_rebalance"]


def blocked_map(n_elements: int) -> Callable:
    """Contiguous blocks of elements per PE (default Charm++ placement)."""

    def fn(index: Hashable, ordinal: int, npes: int) -> int:
        block = (n_elements + npes - 1) // npes
        return min(ordinal // block, npes - 1)

    return fn


def round_robin_map() -> Callable:
    """Element i -> PE i % npes."""

    def fn(index: Hashable, ordinal: int, npes: int) -> int:
        return ordinal % npes

    return fn


def greedy_rebalance(
    loads: Sequence[Tuple[Hashable, float]], npes: int
) -> Dict[Hashable, int]:
    """Greedy refinement: heaviest object to the least-loaded PE.

    The classic Charm++ ``GreedyLB`` strategy, usable between iterations
    from measured per-object loads.  Returns an index -> PE map.
    """
    if npes < 1:
        raise ValueError("npes must be >= 1")
    pe_load = [0.0] * npes
    assignment: Dict[Hashable, int] = {}
    for index, load in sorted(loads, key=lambda t: -t[1]):
        target = min(range(npes), key=lambda p: pe_load[p])
        assignment[index] = target
        pe_load[target] += load
    return assignment
