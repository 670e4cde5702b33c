"""Mini-NAMD: molecular dynamics with PME on the Charm++ runtime (§IV-B).

Real force math (LJ + Ewald real-space, harmonic bonds, smooth PME) on
synthetic systems matching the paper's benchmark parameters, with a
sequential reference engine and a fully distributed Charm++ version.

No function here needs scipy: the real-space Ewald kernels
(:func:`pair_forces`, :func:`ewald_real_space`) call
:func:`repro.namd.erfc.erfc`, a numpy port of scipy's erfc that
returns the same bytes.
"""

from .charm_app import NamdCharm
from .forces import (
    angle_forces,
    bonded_forces,
    exclusion_corrections,
    nonbonded_instructions,
    nonbonded_instructions_tuned,
    pair_forces,
)
from .patches import PatchGrid
from .pme import (
    direct_ewald_reciprocal,
    ewald_real_space,
    ewald_self_energy,
    greens_function,
    interpolate_forces,
    pme_reciprocal,
    spread_charges,
)
from .simulation import SequentialMD, StepEnergies
from .system import APOA1, STMV20M, STMV100M, MolecularSystem, SystemSpec, build_system

__all__ = [
    "APOA1",
    "MolecularSystem",
    "NamdCharm",
    "PatchGrid",
    "STMV100M",
    "STMV20M",
    "SequentialMD",
    "StepEnergies",
    "SystemSpec",
    "angle_forces",
    "bonded_forces",
    "exclusion_corrections",
    "build_system",
    "direct_ewald_reciprocal",
    "ewald_real_space",
    "ewald_self_energy",
    "greens_function",
    "interpolate_forces",
    "nonbonded_instructions",
    "nonbonded_instructions_tuned",
    "pair_forces",
    "pme_reciprocal",
    "spread_charges",
]
