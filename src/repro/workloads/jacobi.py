"""Asynchronous Jacobi / chaotic relaxation on a damped 1-D chain.

The model problem is the damped Jacobi fixed point

    u_i = (u_{i-1} + u_{i+1} + f_i) / (2 + SIGMA),    u_{-1} = u_N = 0

with ``SIGMA = 2``: the iteration matrix has max-norm 2/(2+SIGMA) =
1/2, so *chaotic relaxation* (Chazan/Miranker) converges no matter how
stale the neighbour values are, as long as every cell keeps sweeping
and every halo value is eventually refreshed.  That makes it the
canonical degraded-but-correct workload for best-effort delivery: a
dropped halo costs accuracy-per-sweep, never correctness.

Each cell is a chare that drives its own sweeps via a *reliable*
self-send (immune to network faults — it never leaves the PE) and
pushes its value to both neighbours with the configured QoS.  FRESH
halos key each (destination cell, side) as its own supersede flow, so
a delayed retransmitted value cannot overwrite a newer one.  After the
final sweep every cell contributes its error against the known exact
solution to a reliable max-reduction; the root calls ``charm.exit``.

The forcing term ``f`` is manufactured from a chosen exact solution,
so the converged residual is a direct end-to-end correctness measure.
"""

from __future__ import annotations

import math
from typing import Any, Dict

from ..bgq.params import CYCLES_PER_US
from ..charm import Chare
from ..faults.qos import QOS_RELIABLE

__all__ = ["SIGMA", "JacobiCell", "build_jacobi", "exact_solution", "forcing"]

#: Damping: iteration contraction factor is 2 / (2 + SIGMA) = 1/2.
SIGMA = 2.0

#: Compute per sweep: at 25 us a halo that needs one retransmit (25 us
#: base timeout) arrives only ~1 sweep stale, which keeps the effective
#: contraction rate high under lossy profiles.
SWEEP_INSTR = 25.0 * CYCLES_PER_US
#: Bytes of one halo message.
HALO_BYTES = 32


def exact_solution(ncells: int):
    """The manufactured solution u* (smooth, O(1) values)."""
    return [
        math.sin(2.0 * math.pi * (i + 1) / (ncells + 1)) + 0.5
        for i in range(ncells)
    ]


def forcing(ncells: int):
    """f such that u* is the exact fixed point (zero Dirichlet halo)."""
    u = exact_solution(ncells)
    f = []
    for i in range(ncells):
        left = u[i - 1] if i > 0 else 0.0
        right = u[i + 1] if i < ncells - 1 else 0.0
        f.append((2.0 + SIGMA) * u[i] - left - right)
    return f


class JacobiCell(Chare):
    """One cell of the chain; owns u_i and its two halo slots."""

    def __init__(self, cfg: Dict[str, Any]) -> None:
        self.cfg = cfg
        self.u = 0.0
        self.left = 0.0   # latest value received from cell i-1
        self.right = 0.0  # latest value received from cell i+1
        self.sweeps_done = 0
        self.halos_received = 0

    # side 0 = the sender is my left neighbour, 1 = my right neighbour.
    def halo(self, side: int, value: float) -> None:
        self.halos_received += 1
        if side == 0:
            self.left = value
        else:
            self.right = value

    def sweep(self):
        cfg = self.cfg
        i = self.thisIndex
        n = cfg["ncells"]
        yield from self.charge(SWEEP_INSTR)
        self.u = (self.left + self.right + cfg["f"][i]) / (2.0 + SIGMA)
        self.sweeps_done += 1
        # Push the fresh value to both neighbours under the configured
        # QoS.  The explicit fresh_key makes each (destination, side)
        # pair its own supersede flow regardless of chare placement —
        # the default (array, index, method) key would merge the two
        # inbound sides of one cell into a single flow.
        if i > 0:
            yield from self.send(
                i - 1, "halo", HALO_BYTES, 1, self.u,
                fresh_key=("halo", i - 1, 1),
            )
        if i < n - 1:
            yield from self.send(
                i + 1, "halo", HALO_BYTES, 0, self.u,
                fresh_key=("halo", i + 1, 0),
            )
        if self.sweeps_done < cfg["sweeps"]:
            # Self-send: stays on this PE, so the sweep engine keeps
            # turning even when the network eats every halo.
            yield from self.send(i, "sweep", 16)
        else:
            resid = abs(self.u - cfg["exact"][i])
            yield from self.contribute(resid, "max", "jacobi-resid", cfg["finish"])


def build_jacobi(
    charm,
    ncells: int = 8,
    sweeps: int = 60,
    qos: int = QOS_RELIABLE,
) -> Dict[str, Any]:
    """Wire the solver into a Charm instance; seeds every cell's sweep.

    Returns a box whose ``residual`` the reduction root fills in (also
    the value passed to ``charm.exit``).
    """
    if ncells < 2:
        raise ValueError("jacobi needs at least 2 cells")
    box: Dict[str, Any] = {"residual": None}
    # Halo delivery semantics are the entry method's registered
    # default; the self-driving "sweep" sends stay reliable.
    charm.set_entry_qos("halo", qos)
    cfg: Dict[str, Any] = {
        "ncells": ncells,
        "sweeps": sweeps,
        "f": forcing(ncells),
        "exact": exact_solution(ncells),
    }

    def finish(value: float) -> None:
        box["residual"] = value
        charm.exit(value)

    cfg["finish"] = finish
    array = charm.create_array("jacobi", lambda i: JacobiCell(cfg), range(ncells))
    for i in range(ncells):
        charm.seed(array, i, "sweep")
    box["array"] = array
    box["cfg"] = cfg
    return box
