"""Charm++-like message-driven programming model over the Converse layer.

Chare arrays with entry methods, reductions, and the blocked array map
that places chares on PEs by default (any ``(index, ordinal, npes) ->
pe`` callable can replace it).
"""

from .chare import Chare, ChareArray, blocked_map
from .reduction import REDUCERS, ReductionManager
from .runtime import Charm

__all__ = [
    "Chare",
    "ChareArray",
    "Charm",
    "REDUCERS",
    "ReductionManager",
    "blocked_map",
]
