"""Deterministic discrete-event simulation kernel.

All simulated BG/Q hardware and all runtime threads in this
reproduction execute as processes on :class:`~repro.sim.Environment`.
Beside the engine: the contention-counting :class:`Mutex` (the one
software lock the model needs), seeded random streams, and the
sharded conservative-PDES coordinator.
"""

from .engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Ticket,
    Timeout,
)
from .resources import ContentionStats, Mutex
from .rng import StreamRegistry
from .shard import (
    ShardCoordinator,
    ShardEnvironment,
    ShardStallError,
    run_sharded_subprocesses,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "ContentionStats",
    "Environment",
    "Event",
    "Mutex",
    "Process",
    "ShardCoordinator",
    "ShardEnvironment",
    "ShardStallError",
    "SimulationError",
    "run_sharded_subprocesses",
    "StreamRegistry",
    "Ticket",
    "Timeout",
]
