"""Charm++-like message-driven programming model over the Converse layer.

Chare arrays with entry methods, multicast sections (a full-array
section is a broadcast), reductions, and the array maps plus greedy
load balancer that place chares on PEs.
"""

from .chare import Chare, ChareArray
from .loadbalancer import blocked_map, greedy_rebalance, round_robin_map
from .reduction import REDUCERS, ReductionManager
from .runtime import Charm
from .section import Section

__all__ = [
    "Chare",
    "ChareArray",
    "Charm",
    "REDUCERS",
    "ReductionManager",
    "Section",
    "blocked_map",
    "greedy_rebalance",
    "round_robin_map",
]
