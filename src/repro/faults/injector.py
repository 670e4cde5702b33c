"""The fault injector: seeded draws at the hardware choke points.

A :class:`FaultInjector` is consulted from exactly two places:

* :meth:`repro.bgq.network.TorusNetwork.inject` — after the route is
  computed, :meth:`FaultInjector.on_route` decides whether the packet
  is dropped, duplicated, delayed, held back for reordering, or
  corrupted on one of its links;
* :meth:`repro.bgq.mu.MessagingUnit.receive_packet` —
  :meth:`FaultInjector.on_reception` models overflow/ECC faults at the
  destination reception FIFO (drop / duplicate only).

Determinism: every directed link and every reception FIFO draws from
its own named :class:`~repro.sim.rng.StreamRegistry` stream
(``link.{src}.{dst}``, ``rfifo.{node}.{fifo}``), so a fault schedule
depends only on ``(plan.seed, the packet sequence each link sees)`` —
adding traffic on one link never perturbs the draws of another.

Corruption semantics: a ``corrupt`` fault (and the loss of a non-final
fragment of a multi-packet message) sets ``corrupted`` on the in-flight
:class:`~repro.bgq.mu.Descriptor`; the receive-side reliability gate
discards the message at dispatch, so the sender's retransmit — which
posts a *fresh* descriptor — recovers.  Without the recovery layer a
corrupted message would dispatch anyway; fault plans are therefore
only meaningful on runtimes with reliability enabled (the Converse
runtime turns it on automatically whenever a plan is installed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, TYPE_CHECKING

from ..sim.rng import StreamRegistry
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bgq.network import Packet

__all__ = ["FAULT_TRACK", "FaultStats", "RouteAction", "FaultInjector"]

#: Tracer track id for fault instant-events (comm-thread tracks start at
#: 10_000; fault marks live well above them).
FAULT_TRACK = 20_000


@dataclass
class FaultStats:
    """Graceful-degradation counters, snapshotted into ``faults.*``."""

    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    reordered: int = 0
    corrupted: int = 0
    link_down_drops: int = 0
    fifo_dropped: int = 0
    fifo_duplicated: int = 0

    def as_dict(self) -> dict:
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "reordered": self.reordered,
            "corrupted": self.corrupted,
            "link_down_drops": self.link_down_drops,
            "fifo_dropped": self.fifo_dropped,
            "fifo_duplicated": self.fifo_duplicated,
        }


@dataclass
class RouteAction:
    """What the network should do to one packet (see ``inject``)."""

    drop: bool = False
    extra_delay: float = 0.0
    #: When set, deliver a second copy this many cycles after the first.
    dup_gap: Optional[float] = None


class FaultInjector:
    """Draws per-packet faults for one :class:`FaultPlan`."""

    def __init__(self, env, plan: FaultPlan) -> None:
        self.env = env
        self.plan = plan
        self.streams = StreamRegistry(plan.seed)
        self.stats = FaultStats()
        #: Optional Tracer; fault events appear as instant marks on
        #: FAULT_TRACK in exported timelines.
        self.tracer = None

    # -- helpers -----------------------------------------------------------
    def _mark(self, name: str) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.mark(FAULT_TRACK, name)

    @staticmethod
    def _taint(packet: "Packet") -> None:
        """Mark the packet's message corrupted (fragment lost/damaged)."""
        desc = packet.message
        if desc is not None and hasattr(desc, "corrupted"):
            desc.corrupted = True

    # -- network choke point ----------------------------------------------
    def on_route(
        self, packet: "Packet", route: Tuple[Tuple[int, int], ...]
    ) -> Optional[RouteAction]:
        """Decide the fate of one routed packet.  None = no fault."""
        plan = self.plan
        if packet.kind not in plan.kinds:
            return None
        window = plan.down_window_for(self.env.now) if plan.down else None
        if window is not None:
            for link in route:
                if window.matches(link):
                    self.stats.link_down_drops += 1
                    if not packet.is_last:
                        self._taint(packet)
                    self._mark("fault.link_down_drop")
                    return RouteAction(drop=True)
        action: Optional[RouteAction] = None
        for link in route:
            rates = plan.rates_for(link)
            if rates.total == 0.0:
                continue
            stream = self.streams.stream(f"link.{link[0]}.{link[1]}")
            u = stream.uniform()
            edge = rates.drop
            if u < edge:
                self.stats.dropped += 1
                if not packet.is_last:
                    self._taint(packet)
                self._mark("fault.drop")
                return RouteAction(drop=True)
            edge += rates.duplicate
            if u < edge:
                self.stats.duplicated += 1
                self._mark("fault.duplicate")
                action = action or RouteAction()
                if action.dup_gap is None:
                    action.dup_gap = stream.exponential(plan.delay_mean_cycles)
                continue
            edge += rates.delay
            if u < edge:
                self.stats.delayed += 1
                self._mark("fault.delay")
                action = action or RouteAction()
                action.extra_delay += stream.exponential(plan.delay_mean_cycles)
                continue
            edge += rates.reorder
            if u < edge:
                # A reorder is a long hold-back: later traffic on the
                # same flow overtakes this packet.
                self.stats.reordered += 1
                self._mark("fault.reorder")
                action = action or RouteAction()
                action.extra_delay += stream.exponential(plan.reorder_mean_cycles)
                continue
            edge += rates.corrupt
            if u < edge:
                self.stats.corrupted += 1
                self._taint(packet)
                self._mark("fault.corrupt")
                action = action or RouteAction()
        return action

    # -- MU reception choke point ------------------------------------------
    def on_reception(self, node_id: int, fifo_id: int, packet: "Packet") -> Optional[str]:
        """Fate of a packet entering a reception FIFO: None/"drop"/"dup"."""
        plan = self.plan
        if packet.kind not in plan.kinds:
            return None
        rates = plan.fifo_rates_for(node_id, fifo_id)
        if rates.total == 0.0:
            return None
        u = self.streams.stream(f"rfifo.{node_id}.{fifo_id}").uniform()
        if u < rates.drop:
            self.stats.fifo_dropped += 1
            if not packet.is_last:
                self._taint(packet)
            self._mark("fault.fifo_drop")
            return "drop"
        if u < rates.drop + rates.duplicate:
            self.stats.fifo_duplicated += 1
            self._mark("fault.fifo_duplicate")
            return "dup"
        return None
