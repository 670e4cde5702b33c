"""A whole simulated BG/Q partition: nodes wired to a torus network."""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..sim import Environment
from .network import Packet, TorusNetwork
from .node import Node
from .params import BGQParams, DEFAULT_PARAMS
from .torus import Torus, bgq_partition_shape

__all__ = ["BGQMachine"]


class BGQMachine:
    """``nnodes`` BG/Q nodes on a 5D torus partition.

    This is the hardware substrate the runtime stack is built over.  A
    packet injected by any node's MU is routed by the shared
    :class:`TorusNetwork` and delivered to the destination node's MU.
    """

    def __init__(
        self,
        env: Environment,
        nnodes: int,
        params: BGQParams = DEFAULT_PARAMS,
        shape: Optional[Sequence[int]] = None,
        routing: str = "deterministic",
        local_nodes: Optional[set] = None,
    ) -> None:
        """``local_nodes`` (sharded runs, repro.bgq.shardnet): build only
        those node ids, leaving ``None`` placeholders elsewhere so global
        node ids keep indexing ``nodes``."""
        self.env = env
        self.params = params
        self.torus = Torus(shape if shape is not None else bgq_partition_shape(nnodes))
        if self.torus.nnodes != nnodes:
            raise ValueError(
                f"shape {self.torus.shape} has {self.torus.nnodes} nodes, "
                f"expected {nnodes}"
            )
        self.network = TorusNetwork(
            env, self.torus, params, deliver=self._deliver, routing=routing
        )
        self.local_node_ids = (
            set(range(nnodes)) if local_nodes is None else set(local_nodes)
        )
        self.nodes: List[Optional[Node]] = []
        for i in range(nnodes):
            if i not in self.local_node_ids:
                self.nodes.append(None)
                continue
            node = Node(env, node_id=i, params=params)
            node.mu.network = self.network
            self.nodes.append(node)

    def attach_faults(self, injector) -> None:
        """Install a :class:`~repro.faults.injector.FaultInjector` at
        every choke point (network links + each node's reception FIFOs)."""
        self.network.fault = injector
        for node in self.nodes:
            if node is not None:
                node.mu.fault = injector

    def _deliver(self, packet: Packet) -> None:
        self.nodes[packet.dst].mu.receive_packet(packet)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    @property
    def nnodes(self) -> int:
        return len(self.nodes)
