"""Fault plans: seeded, named descriptions of what goes wrong and when.

A :class:`FaultPlan` is pure data — rates, windows and a root seed.
All randomness is drawn later by the :class:`~repro.faults.injector.
FaultInjector` from named :class:`~repro.sim.rng.StreamRegistry`
streams derived from ``seed``, so a given ``(plan, workload)`` pair
reproduces a bit-identical fault schedule.

Profiles are selected programmatically (``FaultPlan.profile("drop5",
seed=3)``) and installed through
:class:`~repro.converse.machine.RunConfig`'s ``fault_plan`` field.

Faults apply to memory-FIFO packets only: the RDMA engines of real
BG/Q sit behind link-level hardware retry, and the best-effort
literature targets the active-message path, so rget requests and RDMA
data streams stay lossless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..bgq.params import CYCLES_PER_US
from types import MappingProxyType

__all__ = ["FaultRates", "LinkDownWindow", "FaultPlan", "RetryPolicy", "PROFILES"]


@dataclass(frozen=True)
class FaultRates:
    """Per-packet fault probabilities at one choke point (sum <= 1)."""

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    reorder: float = 0.0
    corrupt: float = 0.0

    @property
    def total(self) -> float:
        return self.drop + self.duplicate + self.delay + self.reorder + self.corrupt

    def validate(self, where: str) -> None:
        rates = (self.drop, self.duplicate, self.delay, self.reorder, self.corrupt)
        if any(r < 0.0 for r in rates) or self.total > 1.0:
            raise ValueError(
                f"{where}: fault rates must be >= 0 and sum to <= 1, got {self}"
            )


@dataclass(frozen=True)
class LinkDownWindow:
    """A scheduled outage of directed link(s) during ``[start, end)`` cycles.

    ``src``/``dst`` of ``None`` are wildcards: ``LinkDownWindow(None,
    None, t0, t1)`` takes the whole torus down, ``(3, None, ...)``
    severs every link out of node 3.
    """

    src: Optional[int]
    dst: Optional[int]
    start: float
    end: float

    def matches(self, link: Tuple[int, int]) -> bool:
        return (self.src is None or self.src == link[0]) and (
            self.dst is None or self.dst == link[1]
        )

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class RetryPolicy:
    """ACK-timeout retransmission knobs for the recovery layer."""

    timeout_cycles: float = 25.0 * CYCLES_PER_US
    backoff: float = 2.0
    max_retries: int = 12


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault-injection scenario."""

    seed: int = 0
    name: str = "custom"
    #: Default per-directed-link rates (applied to every torus link).
    link: FaultRates = FaultRates()
    #: Per-link overrides, keyed by directed ``(src_node, dst_node)``.
    per_link: Mapping[Tuple[int, int], FaultRates] = field(default_factory=dict)
    #: Default per-MU-reception-FIFO rates (drop/duplicate are honoured;
    #: in-FIFO delay/reorder/corrupt are not modelled at this hop).
    rec_fifo: FaultRates = FaultRates()
    #: Per-FIFO overrides, keyed by ``(node_id, fifo_id)``.
    per_fifo: Mapping[Tuple[int, int], FaultRates] = field(default_factory=dict)
    #: Mean of the exponential extra-latency draw for ``delay`` faults.
    delay_mean_cycles: float = 4_000.0
    #: Mean extra latency for ``reorder`` faults (held back long enough
    #: that later traffic on the flow overtakes the packet).
    reorder_mean_cycles: float = 24_000.0
    #: Scheduled outages.
    down: Tuple[LinkDownWindow, ...] = ()
    #: Recovery knobs used when this plan enables the reliable transport.
    retry_timeout_us: float = 25.0
    retry_backoff: float = 2.0
    retry_max: int = 12

    def __post_init__(self) -> None:
        self.link.validate("link")
        self.rec_fifo.validate("rec_fifo")
        for key, rates in self.per_link.items():
            rates.validate(f"per_link[{key}]")
        for key, rates in self.per_fifo.items():
            rates.validate(f"per_fifo[{key}]")
        if self.retry_max < 0 or self.retry_backoff < 1.0 or self.retry_timeout_us <= 0:
            raise ValueError("bad retry policy parameters")

    # -- lookups -----------------------------------------------------------
    def rates_for(self, link: Tuple[int, int]) -> FaultRates:
        return self.per_link.get(link, self.link)

    def fifo_rates_for(self, node_id: int, fifo_id: int) -> FaultRates:
        return self.per_fifo.get((node_id, fifo_id), self.rec_fifo)

    def down_window_for(self, now: float) -> Optional[LinkDownWindow]:
        """The first active outage window at ``now`` (or None)."""
        for w in self.down:
            if w.active(now):
                return w
        return None

    @property
    def is_null(self) -> bool:
        """True when this plan can never produce a fault."""
        return (
            self.link.total == 0.0
            and self.rec_fifo.total == 0.0
            and not self.per_link
            and not self.per_fifo
            and not self.down
        )

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            timeout_cycles=self.retry_timeout_us * CYCLES_PER_US,
            backoff=self.retry_backoff,
            max_retries=self.retry_max,
        )

    # -- construction ------------------------------------------------------
    @classmethod
    def profile(cls, name: str, seed: int = 0, **overrides) -> "FaultPlan":
        """Build a named profile (see :data:`PROFILES`)."""
        if name not in PROFILES:
            known = ", ".join(sorted(PROFILES))
            raise ValueError(f"unknown fault profile {name!r} (known: {known})")
        kwargs: Dict = dict(PROFILES[name])
        kwargs.update(overrides)
        return cls(seed=seed, name=name, **kwargs)


#: Named fault profiles: the chaos suite's seed matrix runs over these
#: (EXPERIMENTS.md "Chaos suite").  Rates are per packet per link hop.
PROFILES: Dict[str, Dict] = MappingProxyType({
    "none": {},
    "drop1": {"link": FaultRates(drop=0.01)},
    "drop5": {"link": FaultRates(drop=0.05)},
    "drop10": {"link": FaultRates(drop=0.10)},
    "dup5": {"link": FaultRates(duplicate=0.05)},
    "delay10": {"link": FaultRates(delay=0.10)},
    "reorder10": {"link": FaultRates(reorder=0.10)},
    "corrupt2": {"link": FaultRates(corrupt=0.02)},
    "fifo5": {"rec_fifo": FaultRates(drop=0.04, duplicate=0.01)},
    "chaos": {
        "link": FaultRates(drop=0.03, duplicate=0.02, delay=0.03, reorder=0.02,
                           corrupt=0.01),
        "rec_fifo": FaultRates(drop=0.01, duplicate=0.01),
    },
    "linkflap": {
        "link": FaultRates(drop=0.01),
        "down": (LinkDownWindow(None, None, 100_000.0, 400_000.0),),
    },
    # Permanent partition: every link down for the whole run — longer
    # than the full retransmit ladder (25 us * (2^13 - 1) ~ 328 M
    # cycles), so every reliable send exhausts its retries and gives
    # up.  The chaosbench degraded-but-correct axis asserts the run
    # still quiesces instead of hanging.
    "partition": {
        "down": (LinkDownWindow(None, None, 0.0, 1.0e15),),
    },
})
