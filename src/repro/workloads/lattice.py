"""JLQCD-style 4D lattice halo exchange over CmiDirect bursts.

A 2x2x2x2 periodic lattice is split along the t-direction across two
SMP processes (one per BG/Q node): process p owns the 8 sites with
``t == p``.  Intra-slab neighbour updates are pointer-local; the
cross-process boundary — every site's +-t neighbours live on the peer
slab — is the JLQCD communication pattern, exchanged each round as a
persistent :class:`~repro.converse.cmidirect.CmiDirectHandle` burst of
8 short messages per process.

Delivery semantics are the handle's QoS (:mod:`repro.faults.qos`):

* reliable — every round's burst arrives exactly once; the round
  barrier waits for the full expected count;
* best-effort / FRESH — the burst is unstamped and the round completes
  at ``deadline_cycles`` with whatever arrived, accumulating the
  missing count in ``shortfall``.  Receivers keep, per peer site, the
  newest round seen; *staleness* (rounds since the last update) is the
  degraded-but-correct quality metric.

Every payload carries ``site_value(site, round)``, so the harness can
verify that everything that *did* arrive is bit-exact — degradation is
allowed to lose updates, never to invent or corrupt them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..converse.messages import ConverseMessage
from ..faults.qos import QOS_RELIABLE

__all__ = ["SITES", "site_value", "LatticeHalo"]

#: All 16 sites of the 2x2x2x2 lattice, lexicographic.
SITES: Tuple[Tuple[int, int, int, int], ...] = tuple(
    (x, y, z, t)
    for x in range(2)
    for y in range(2)
    for z in range(2)
    for t in range(2)
)

#: Instructions of the stencil update a process runs between exchanges.
STENCIL_INSTR = 4000.0


def site_value(site: Tuple[int, int, int, int], rnd: int) -> int:
    """Deterministic per-(site, round) field value for integrity checks."""
    x, y, z, t = site
    return ((x + 2 * y + 4 * z + 8 * t + 1) * (rnd + 1) * 17) % 251


class LatticeHalo:
    """The halo-exchange driver: handles, kick loop, degradation metrics.

    One handle per (process, round) keeps rounds race-free (reset-less;
    the same idiom as the m2m chaos workload).  ``install()`` registers
    everything and seeds a kick message on the first PE of each
    process; the ``all_done`` event fires when both processes have
    completed every round barrier.  It refuses a runtime with no comm
    thread: the kick blocks its PE, so only a comm thread can progress
    the burst.
    """

    def __init__(
        self,
        runtime,
        cmidirect,
        rounds: int = 4,
        qos: int = QOS_RELIABLE,
        deadline_cycles: Optional[float] = None,
        nbytes: int = 48,
    ) -> None:
        if len(runtime.processes) != 2:
            raise ValueError("lattice workload needs exactly 2 processes")
        self.runtime = runtime
        self.cmidirect = cmidirect
        self.rounds = rounds
        self.qos = qos
        # Reliable barriers wait for the full count; a deadline would
        # let a round complete short and break exactly-once accounting.
        self.deadline_cycles = None if qos == QOS_RELIABLE else deadline_cycles
        self.nbytes = nbytes
        self.owned: List[List[Tuple[int, int, int, int]]] = [
            [s for s in SITES if s[3] == p] for p in range(2)
        ]
        #: Per process: every (site, round, value) arrival, duplicates
        #: included (best-effort has no dedup — that is the semantics).
        self.arrivals: List[List[Tuple[Any, int, int]]] = [[], []]
        #: Per process: site -> newest round received.
        self.newest: List[Dict[Any, int]] = [{}, {}]
        self.handles: Dict[Tuple[int, int], Any] = {}
        self.all_done = runtime.env.event()
        self._finished = 0

    # -- setup -------------------------------------------------------------
    def install(self) -> "LatticeHalo":
        rt = self.runtime
        if rt.config.comm_threads_per_process < 1:
            raise ValueError(
                "lattice workload needs comm_threads_per_process >= 1: _kick "
                "blocks its PE on send_done/recv_done, so without a comm "
                "thread nothing advances the PAMI context and the burst "
                "never completes"
            )
        procs = rt.processes
        # First PE of each process registers that process's handles.
        first_pe = [
            next(pe for pe in rt.pes if pe.process is proc) for proc in procs
        ]
        for pi in range(2):
            peer_rank = first_pe[1 - pi].rank
            for rnd in range(self.rounds):
                sends = [
                    (
                        peer_rank,
                        self.nbytes,
                        ("lat", site, rnd, site_value(site, rnd)),
                        rnd,
                    )
                    for site in self.owned[pi]
                ]
                self.handles[(pi, rnd)] = self.cmidirect.register(
                    rnd,
                    first_pe[pi],
                    sends,
                    expected_recvs=len(self.owned[1 - pi]),
                    on_message=self._make_sink(pi),
                    qos=self.qos,
                    deadline_cycles=self.deadline_cycles,
                )
        hid_kick = rt.register_handler(self._kick)
        for pi in range(2):
            pe = first_pe[pi]
            pe.local_q.append(ConverseMessage(hid_kick, 0, pi, pe.rank, pe.rank))
        return self

    def _make_sink(self, pi: int):
        def sink(src_rank, data):
            _tag, site, rnd, value = data
            self.arrivals[pi].append((site, rnd, value))
            if rnd > self.newest[pi].get(site, -1):
                self.newest[pi][site] = rnd

        return sink

    def _kick(self, pe, msg):
        pi = msg.payload
        for rnd in range(self.rounds):
            h = self.handles[(pi, rnd)]
            yield from h.start()
            yield h.send_done
            yield h.recv_done
            # The stencil update between exchanges.
            yield from pe.thread.compute(STENCIL_INSTR)
        self._finished += 1
        if self._finished == 2 and not self.all_done.triggered:
            self.all_done.succeed()

    # -- degradation metrics ----------------------------------------------
    def integrity_ok(self) -> bool:
        """Everything that arrived is a bit-exact peer-slab value."""
        for pi in range(2):
            peer = set(self.owned[1 - pi])
            for site, rnd, value in self.arrivals[pi]:
                if site not in peer:
                    return False
                if not 0 <= rnd < self.rounds:
                    return False
                if value != site_value(site, rnd):
                    return False
        return True

    def staleness(self) -> Dict[Any, int]:
        """Per peer site: rounds elapsed since its newest received
        update (``rounds`` = never heard from it at all)."""
        out: Dict[Any, int] = {}
        for pi in range(2):
            for site in self.owned[1 - pi]:
                out[site] = self.rounds - 1 - self.newest[pi].get(site, -1)
        return out

    def distinct_updates(self) -> int:
        """Count of distinct (receiver, site, round) deliveries."""
        return sum(len({(s, r) for s, r, _v in self.arrivals[pi]}) for pi in range(2))

    @property
    def expected_updates(self) -> int:
        return 2 * self.rounds * len(self.owned[0])

    @property
    def shortfall(self) -> int:
        return sum(h.shortfall for h in self.handles.values())
