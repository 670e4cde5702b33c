"""Deterministic discrete-event simulation kernel.

All simulated BG/Q hardware and all runtime threads in this
reproduction execute as processes on :class:`~repro.sim.Environment`.
"""

from .engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Ticket,
    Timeout,
)
from .resources import ContentionStats, Mutex, Semaphore, Store
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
    "Interrupt",
    "Mutex",
    "Process",
    "Semaphore",
    "ShardCoordinator",
    "ShardEnvironment",
    "ShardStallError",
    "SimulationError",
    "Store",
    "run_sharded_subprocesses",
    "StreamRegistry",
    "Ticket",
    "Timeout",
]
