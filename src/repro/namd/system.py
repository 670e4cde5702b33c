"""Synthetic molecular systems (substitute for the paper's inputs).

The paper benchmarks ApoA1 (92,000 atoms) and two STMV assemblies
(20 M and 100 M atoms).  The actual structures are irrelevant to the
runtime behaviour under study — what matters is atom count, density,
cutoff and PME grid size, which set the compute/communication volumes.
:class:`SystemSpec` carries exactly those parameters (with the paper's
published values), and :func:`build_system` instantiates a jittered-
lattice system of any size with matching density for the runnable
simulations and DES experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

__all__ = ["SystemSpec", "MolecularSystem", "build_system", "APOA1", "STMV20M", "STMV100M"]


@dataclass(frozen=True)
class SystemSpec:
    """Benchmark-relevant parameters of a molecular system."""

    name: str
    n_atoms: int
    box: Tuple[float, float, float]  # Angstrom
    pme_grid: Tuple[int, int, int]
    cutoff: float = 12.0  # Angstrom [paper: "12 Angstrom cutoff"]
    timestep_fs: float = 1.0  # [paper: "1 femto second time step"]

    @property
    def density(self) -> float:
        v = self.box[0] * self.box[1] * self.box[2]
        return self.n_atoms / v


#: ApoA1: 92k atoms, the standard NAMD benchmark [paper §V-B].
APOA1 = SystemSpec(
    name="ApoA1",
    n_atoms=92_224,
    box=(108.86, 108.86, 77.76),
    pme_grid=(108, 108, 80),
)

#: STMV 20-million-atom assembly: 1 x 5 x 4 replicas of the 1,066,628-
#: atom STMV unit cell (216.832 A cube); the paper's PME grid
#: (216 x 1080 x 864, Fig. 12) is exactly ~1 A spacing over that box.
STMV20M = SystemSpec(
    name="STMV-20M",
    n_atoms=21_332_560,
    box=(216.832, 1084.16, 867.328),
    pme_grid=(216, 1080, 864),
)

#: STMV 100-million-atom assembly: 5 x 5 x 4 replicas (Table II).
STMV100M = SystemSpec(
    name="STMV-100M",
    n_atoms=106_662_800,
    box=(1084.16, 1084.16, 867.328),
    pme_grid=(1080, 1080, 864),
)


@dataclass
class MolecularSystem:
    """A concrete, runnable system: positions, charges, bonds."""

    spec: SystemSpec
    positions: np.ndarray  # (N, 3) Angstrom
    velocities: np.ndarray  # (N, 3) Angstrom/fs
    charges: np.ndarray  # (N,) e, neutral overall
    masses: np.ndarray  # (N,) amu
    #: Harmonic bonds: (i, j, r0, k) with k in e^2/A^3-ish model units.
    bonds: List[Tuple[int, int, float, float]] = field(default_factory=list)
    #: Harmonic angles: (i, j, k, theta0, k_angle) with j the vertex.
    angles: List[Tuple[int, int, int, float, float]] = field(default_factory=list)

    def exclusions(self) -> List[Tuple[int, int]]:
        """Non-bonded exclusion pairs: 1-2 (bonds) and 1-3 (angles)."""
        pairs = {(min(i, j), max(i, j)) for (i, j, _r0, _k) in self.bonds}
        pairs |= {(min(i, k), max(i, k)) for (i, _j, k, _t0, _ka) in self.angles}
        return sorted(pairs)

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    @property
    def box(self) -> np.ndarray:
        return np.asarray(self.spec.box)


def build_system(
    n_atoms: int,
    spec_like: SystemSpec = APOA1,
    seed: int = 2013,
    bond_fraction: float = 0.5,
    temperature: float = 0.0,
    angle_fraction: float = 0.0,
) -> MolecularSystem:
    """Build an ``n_atoms`` synthetic system at ``spec_like``'s density.

    Atoms sit on a jittered cubic lattice (no overlaps), alternate +/-
    partial charges sum to exactly zero, and ``bond_fraction`` of atoms
    are paired into harmonic bonds with their lattice neighbour.  With
    ``angle_fraction > 0``, that fraction of atoms form three-atom
    chains carrying two bonds and a harmonic angle (taking precedence
    over plain pair bonds for those atoms).  A PME grid of matching
    resolution (~1 A spacing) is chosen.
    """
    if n_atoms < 2:
        raise ValueError("need at least two atoms")
    rng = np.random.default_rng(seed)
    # Box with the reference density, cubic-ish.
    volume = n_atoms / spec_like.density
    side = volume ** (1.0 / 3.0)
    box = (side, side, side)
    per_dim = int(np.ceil(n_atoms ** (1 / 3)))
    spacing = side / per_dim
    idx = np.arange(per_dim**3)[:n_atoms]
    coords = np.stack(
        [idx // per_dim**2, (idx // per_dim) % per_dim, idx % per_dim], axis=1
    ).astype(np.float64)
    positions = (coords + 0.5) * spacing
    positions += rng.normal(scale=0.1 * spacing, size=positions.shape)
    positions %= np.asarray(box)

    charges = np.where(idx % 2 == 0, 0.4, -0.4)
    if n_atoms % 2 == 1:
        charges[-1] = 0.0  # keep the system exactly neutral
    masses = np.full(n_atoms, 12.0)
    velocities = np.zeros((n_atoms, 3))
    if temperature > 0:
        # Maxwell-Boltzmann-ish (model units; kB folded into T scale).
        velocities = rng.normal(scale=np.sqrt(temperature / masses)[:, None], size=(n_atoms, 3))
        velocities -= velocities.mean(axis=0)

    def _image_distance(i: int, j: int) -> float:
        d = positions[j] - positions[i]
        d -= np.round(d / np.asarray(box)) * np.asarray(box)
        return float(np.linalg.norm(d))

    def _image_angle(i: int, j: int, k: int) -> float:
        rij = positions[i] - positions[j]
        rkj = positions[k] - positions[j]
        rij -= np.round(rij / np.asarray(box)) * np.asarray(box)
        rkj -= np.round(rkj / np.asarray(box)) * np.asarray(box)
        c = float(rij @ rkj / (np.linalg.norm(rij) * np.linalg.norm(rkj)))
        return float(np.arccos(np.clip(c, -1.0, 1.0)))

    bonds: List[Tuple[int, int, float, float]] = []
    angles: List[Tuple[int, int, int, float, float]] = []
    # Three-atom chains first (two bonds + one angle each).
    n_chains = int(angle_fraction * n_atoms / 3)
    used = 0
    for c in range(n_chains):
        i, j, k = 3 * c, 3 * c + 1, 3 * c + 2
        if k >= n_atoms:
            break
        bonds.append((i, j, _image_distance(i, j), 2.0))
        bonds.append((j, k, _image_distance(j, k), 2.0))
        angles.append((i, j, k, _image_angle(i, j, k), 1.0))
        used = k + 1
    # Plain pair bonds over the remaining atoms.
    n_bonds = int(bond_fraction * (n_atoms - used) / 2)
    for b in range(n_bonds):
        i = used + 2 * b
        j = used + 2 * b + 1
        if j >= n_atoms:
            break
        bonds.append((i, j, _image_distance(i, j), 2.0))

    # PME grid at ~1 A resolution, sizes rounded up to even numbers
    # (fast FFT sizes are not essential for the simulation).
    grid = tuple(int(2 * np.ceil(b / 2.0)) for b in box)
    spec = SystemSpec(
        name=f"synthetic-{n_atoms}",
        n_atoms=n_atoms,
        box=box,
        pme_grid=grid,
        cutoff=spec_like.cutoff,
        timestep_fs=spec_like.timestep_fs,
    )
    return MolecularSystem(
        spec=spec,
        positions=positions,
        velocities=velocities,
        charges=charges,
        masses=masses,
        bonds=bonds,
        angles=angles,
    )
