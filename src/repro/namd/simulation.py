"""Sequential mini-NAMD: the reference MD engine.

Runs real molecular dynamics (velocity Verlet; bonded + cutoff
non-bonded via the patch/cell decomposition + reciprocal PME every k
steps) on a single Python process.  This is the *numerical* reference:
the Charm++-distributed version (:mod:`repro.namd.charm_app`) must
produce the same trajectories, and energy-conservation tests run here.

It also doubles as the per-step *work meter*: it counts non-bonded
pairs, FFT sizes and message-equivalent volumes, which calibrate the
analytic scaling model in :mod:`repro.perfmodel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .forces import angle_forces, bonded_forces, exclusion_corrections, pair_forces
from .integrator import kick, drift, kinetic_energy, remove_drift
from .patches import PatchGrid
from .pme import ewald_self_energy, pme_reciprocal
from .system import MolecularSystem

__all__ = ["StepEnergies", "SequentialMD"]


@dataclass
class StepEnergies:
    """Energy decomposition of one step (model units, e^2/A)."""

    bonded: float = 0.0
    nonbonded: float = 0.0  # LJ + real-space Ewald
    reciprocal: float = 0.0
    self_energy: float = 0.0
    kinetic: float = 0.0

    @property
    def potential(self) -> float:
        return self.bonded + self.nonbonded + self.reciprocal + self.self_energy

    @property
    def total(self) -> float:
        return self.potential + self.kinetic


class SequentialMD:
    """Reference MD driver over a :class:`MolecularSystem`."""

    def __init__(
        self,
        system: MolecularSystem,
        beta: float = 0.35,
        pme_every: int = 4,
        pme_order: int = 4,
        dt: Optional[float] = None,
        use_exclusions: bool = True,
    ) -> None:
        if pme_every < 1:
            raise ValueError("pme_every must be >= 1")
        self.system = system
        self.beta = beta
        self.pme_every = pme_every
        self.pme_order = pme_order
        self.use_exclusions = use_exclusions
        self.exclusion_pairs = system.exclusions() if use_exclusions else []
        self.dt = dt if dt is not None else system.spec.timestep_fs * 0.02
        self.grid = PatchGrid.for_cutoff(system.spec.box, system.spec.cutoff)
        self.step_count = 0
        self._cached_recip_forces = np.zeros_like(system.positions)
        self._cached_recip_energy = 0.0
        self.energies: List[StepEnergies] = []
        self.pair_counts: List[int] = []

    # -- forces -----------------------------------------------------------
    def compute_short_range(self) -> tuple[float, np.ndarray, int]:
        """Bonded + cutoff non-bonded via the patch decomposition."""
        sysm = self.system
        box = sysm.box
        forces = np.zeros_like(sysm.positions)
        energy = 0.0
        total_pairs = 0
        bins = self.grid.bin_atoms(sysm.positions)
        for (a, b) in self.grid.neighbor_pairs():
            ia, ib = bins[a], bins[b]
            if len(ia) == 0 or len(ib) == 0:
                continue
            e, fa, fb, npairs = pair_forces(
                sysm.positions[ia],
                sysm.positions[ib],
                sysm.charges[ia],
                sysm.charges[ib],
                box,
                sysm.spec.cutoff,
                self.beta,
                same_block=(a == b),
            )
            energy += e
            total_pairs += npairs
            np.add.at(forces, ia, fa)
            if a != b:
                np.add.at(forces, ib, fb)
        e_bond, f_bond = bonded_forces(sysm.positions, sysm.bonds, box)
        e_ang, f_ang = angle_forces(sysm.positions, sysm.angles, box)
        energy += e_bond + e_ang
        forces = forces + f_bond + f_ang
        if self.exclusion_pairs:
            e_x, f_x = exclusion_corrections(
                sysm.positions, self.exclusion_pairs, sysm.charges, box, self.beta
            )
            energy += e_x
            forces = forces + f_x
        return energy, forces, total_pairs

    def compute_reciprocal(self) -> tuple[float, np.ndarray]:
        sysm = self.system
        return pme_reciprocal(
            sysm.positions,
            sysm.charges,
            sysm.box,
            sysm.spec.pme_grid,
            self.beta,
            self.pme_order,
        )

    def compute_forces(self, refresh_pme: bool) -> tuple[StepEnergies, np.ndarray]:
        e_short, f_short, npairs = self.compute_short_range()
        self.pair_counts.append(npairs)
        if refresh_pme:
            self._cached_recip_energy, self._cached_recip_forces = (
                self.compute_reciprocal()
            )
        energies = StepEnergies(
            bonded=0.0,  # folded into e_short; split kept simple
            nonbonded=e_short,
            reciprocal=self._cached_recip_energy,
            self_energy=ewald_self_energy(self.system.charges, self.beta),
        )
        return energies, f_short + self._cached_recip_forces

    # -- stepping -----------------------------------------------------------
    def step(self) -> StepEnergies:
        """One velocity-Verlet step (PME refreshed every ``pme_every``)."""
        sysm = self.system
        refresh = self.step_count % self.pme_every == 0
        if self.step_count == 0:
            self._energies0, self._forces = self.compute_forces(refresh_pme=True)
        kick(sysm.velocities, self._forces, sysm.masses, self.dt)
        drift(sysm.positions, sysm.velocities, self.dt, sysm.box)
        refresh = (self.step_count + 1) % self.pme_every == 0 or self.pme_every == 1
        energies, self._forces = self.compute_forces(refresh_pme=refresh)
        kick(sysm.velocities, self._forces, sysm.masses, self.dt)
        self.step_count += 1
        energies.kinetic = kinetic_energy(sysm.velocities, sysm.masses)
        self.energies.append(energies)
        return energies

    def run(self, n_steps: int) -> List[StepEnergies]:
        remove_drift(self.system.velocities, self.system.masses)
        for _ in range(n_steps):
            self.step()
        return self.energies[-n_steps:]

    # -- work metering (calibrates the analytic model) -------------------------
    def mean_pairs_per_step(self) -> float:
        if not self.pair_counts:
            raise ValueError("run at least one step first")
        return float(np.mean(self.pair_counts))
