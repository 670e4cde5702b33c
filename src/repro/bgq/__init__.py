"""Simulated IBM Blue Gene/Q hardware substrate.

Models the BG/Q features the paper's runtime optimizations exploit:
the 4-way SMT A2 cores, L2 atomic operations, the wakeup unit, the
messaging unit with its large FIFO arrays, the 5D torus network and
the GNU arena heap allocator.  Simulated time is in A2 cycles
(:data:`CYCLES_PER_US` per microsecond).
"""

from .core import Core, CoreMember
from .l2 import BOUNDED_INCREMENT_FAILED, L2AtomicUnit, L2Counter
from .machine import BGQMachine
from .memory import ArenaAllocator, Buffer
from .mu import Descriptor, InjectionFifo, MessagingUnit, ReceptionFifo
from .network import MEMFIFO, RDMA_DATA, RGET_REQUEST, Packet, TorusNetwork
from .node import HWThread, Node
from .params import BGQParams, DEFAULT_PARAMS, CYCLES_PER_US
from .torus import PARTITION_SHAPES, Torus, bgq_partition_shape
from .wakeup import WakeupSource, arm_any

__all__ = [
    "ArenaAllocator",
    "BGQMachine",
    "BGQParams",
    "BOUNDED_INCREMENT_FAILED",
    "Buffer",
    "Core",
    "CoreMember",
    "CYCLES_PER_US",
    "DEFAULT_PARAMS",
    "Descriptor",
    "HWThread",
    "InjectionFifo",
    "L2AtomicUnit",
    "L2Counter",
    "MEMFIFO",
    "MessagingUnit",
    "Node",
    "PARTITION_SHAPES",
    "Packet",
    "RDMA_DATA",
    "RGET_REQUEST",
    "ReceptionFifo",
    "Torus",
    "TorusNetwork",
    "WakeupSource",
    "arm_any",
    "bgq_partition_shape",
]
