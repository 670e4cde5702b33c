"""Short-range force kernels: LJ + screened Coulomb + bonds (§IV-B1).

The *QPX* path is the vectorized numpy kernel (standing in for the XL
compiler-intrinsic QPX SIMD inner loop the paper tuned); the *scalar*
path produces identical numbers but is charged at the scalar cost in
the simulated-cost model.  The paper measured +15.8% serial speedup
from the QPX/L1P work; the cost model in :mod:`repro.perfmodel` carries
that ratio.

Loop-order contract: :func:`pair_forces` is byte-identical to the
full-block ``(ni, nj, 3)`` form that ``tests/namd/test_kernel_identity.py``
keeps as a reference, while allocating per row tile, not per block:

* it walks the i block in tiles of at most ``_TILE_CELLS`` pair cells
  (a same-block tile skips the columns left of its diagonal);
* each axis's minimum-image delta is a contiguous ``(rows, nj)`` plane,
  built with the reference's elementwise operations (``rint`` is the
  ``round`` it replaces);
* ``r2`` adds the squared planes in the order the reference's
  ``einsum("ijk,ijk->ij")`` does, ``(x0*x0 + x2*x2) + x1*x1`` (numpy
  2.4; either other order differs in about one element in four);
* the kernel runs on the in-cutoff pairs only, in ``(i, j)`` order;
* ``forces_on_i`` sums each row with ``np.bincount`` and
  ``forces_on_j`` each column with ``np.add.at``, both from 0.0 in
  ``(i, j)`` pair order: the sequential sums of the reference's
  zero-padded ``axis=1`` / ``axis=0`` reductions, pads dropped;
* the energy is ``np.sum`` over one zero-padded ``(ni, nj)`` array, so
  its pairwise summation tree is the reference's.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from .erfc import erfc

__all__ = [
    "pair_forces",
    "bonded_forces",
    "angle_forces",
    "exclusion_corrections",
    "nonbonded_instructions",
    "PAIR_FLOPS",
    "QPX_SPEEDUP",
]

#: Floating-point work per non-bonded pair inside cutoff (distance,
#: erfc interpolation-table lookup, LJ, accumulation) [calibrated to
#: NAMD kernels].
PAIR_FLOPS = 45.0
#: Measured serial gain of the QPX + load-to-use-distance tuning
#: [paper §IV-B1: "improved the serial performance ... by about 15.8%"].
QPX_SPEEDUP = 1.158

#: LJ parameters of the synthetic atom type, scaled to the synthetic
#: lattice spacing (~2.15 A at ApoA1 density) so the initial
#: configuration starts near the LJ minimum (model units).
LJ_EPSILON = 0.02
LJ_SIGMA = 1.8

#: Pair cells per row tile of :func:`pair_forces`: each (rows, nj)
#: float plane stays near 64 KiB (one row, when nj alone is larger).
_TILE_CELLS = 8192


def pair_forces(
    pos_i: np.ndarray,
    pos_j: np.ndarray,
    q_i: np.ndarray,
    q_j: np.ndarray,
    box: np.ndarray,
    cutoff: float,
    beta: float,
    same_block: bool = False,
) -> Tuple[float, np.ndarray, np.ndarray, int]:
    """Non-bonded interactions between two atom blocks.

    Returns ``(energy, forces_on_i, forces_on_j, n_pairs)`` with
    minimum-image periodic distances, an erfc-screened Coulomb term
    (the Ewald real-space part) and Lennard-Jones.  With
    ``same_block=True`` the blocks are the same array and each pair is
    counted once.
    """
    pos_i = np.asarray(pos_i)
    pos_j = np.asarray(pos_j)
    ni, nj = len(pos_i), len(pos_j)
    # Axis-major copies: each axis of a tile is a contiguous slice.
    xi = np.ascontiguousarray(pos_i.T)
    xj = np.ascontiguousarray(pos_j.T)
    cut2 = cutoff**2
    e_pair = np.zeros((ni, nj))
    f_i = np.zeros((ni, 3))
    sum_j = np.zeros((nj, 3))
    n_pairs = 0
    rows = max(1, _TILE_CELLS // max(nj, 1))
    if same_block:
        # Row r of a tile starting at row r0 keeps columns r0+1+c, c >= r.
        upper = np.less_equal.outer(np.arange(rows), np.arange(nj))
    for r0 in range(0, ni, rows):
        r1 = min(r0 + rows, ni)
        c0 = r0 + 1 if same_block else 0
        if c0 >= nj:
            break
        delta = []
        for k in range(3):
            d = np.subtract.outer(xi[k, r0:r1], xj[k, c0:])
            t = d / box[k]
            np.rint(t, out=t)
            t *= box[k]
            d -= t
            delta.append(d)
        # The reference einsum's order (module docstring).
        r2 = delta[0] * delta[0]
        r2 += delta[2] * delta[2]
        r2 += delta[1] * delta[1]
        mask = r2 < cut2
        if same_block:
            mask &= upper[: r1 - r0, : nj - c0]
        cells = np.flatnonzero(mask)
        if cells.size == 0:
            continue
        n_pairs += cells.size
        li = cells // (nj - c0)
        lj = cells - li * (nj - c0)
        r2s = r2.ravel()[cells]
        r = np.sqrt(r2s)
        qq = q_i[r0:r1][li] * q_j[c0:][lj]
        # Screened Coulomb (real-space Ewald term); erfc is the numpy
        # port of scipy's (repro.namd.erfc), so no run needs scipy.
        erfc_br = erfc(beta * r)
        e_coul = qq * erfc_br / r
        dedr_coul = -qq * (
            erfc_br / r2s
            + 2 * beta / math.sqrt(math.pi) * np.exp(-(beta**2) * r2s) / r
        )
        # Lennard-Jones.
        s6 = (LJ_SIGMA**2 / r2s) ** 3
        s12 = s6**2
        e_lj = 4 * LJ_EPSILON * (s12 - s6)
        dedr_lj = 4 * LJ_EPSILON * (-12 * s12 + 6 * s6) / r
        e_pair[r0:r1, c0:][mask] = e_coul + e_lj
        fmag = -(dedr_coul + dedr_lj) / r
        for k in range(3):
            fk = fmag * delta[k].ravel()[cells]
            f_i[r0:r1, k] = np.bincount(li, weights=fk, minlength=r1 - r0)
            np.add.at(sum_j[c0:, k], lj, fk)
    if n_pairs == 0:
        return 0.0, np.zeros_like(pos_i), np.zeros_like(pos_j), 0
    energy = float(np.sum(e_pair))
    f_j = -sum_j
    if same_block:
        # Upper-triangle masking puts the action on the row atom and the
        # reaction on the column atom of the same array: combine.
        f_i = f_i + f_j
        f_j = f_i
    return energy, f_i, f_j, n_pairs


def bonded_forces(
    positions: np.ndarray,
    bonds: List[Tuple[int, int, float, float]],
    box: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """Harmonic bond energy/forces: E = k (r - r0)^2 (vectorized)."""
    forces = np.zeros_like(positions)
    if not bonds:
        return 0.0, forces
    arr = np.asarray([(i, j, r0, k) for (i, j, r0, k) in bonds])
    i = arr[:, 0].astype(int)
    j = arr[:, 1].astype(int)
    r0 = arr[:, 2]
    k = arr[:, 3]
    d = positions[i] - positions[j]
    d -= np.round(d / box) * box
    r = np.linalg.norm(d, axis=1)
    energy = float(np.sum(k * (r - r0) ** 2))
    fmag = -2 * k * (r - r0) / np.where(r > 0, r, 1.0)
    fvec = fmag[:, None] * d
    np.add.at(forces, i, fvec)
    np.add.at(forces, j, -fvec)
    return energy, forces


def angle_forces(
    positions: np.ndarray,
    angles: List[Tuple[int, int, int, float, float]],
    box: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """Harmonic angle energy/forces: E = k (theta - theta0)^2.

    ``angles`` — (i, j, k, theta0, kang) with j the vertex atom.
    Vectorized over all angles with minimum-image bond vectors.
    """
    forces = np.zeros_like(positions)
    if not angles:
        return 0.0, forces
    arr = np.asarray(angles, dtype=np.float64)
    ai = arr[:, 0].astype(int)
    aj = arr[:, 1].astype(int)
    ak = arr[:, 2].astype(int)
    theta0 = arr[:, 3]
    kang = arr[:, 4]
    rij = positions[ai] - positions[aj]
    rkj = positions[ak] - positions[aj]
    rij -= np.round(rij / box) * box
    rkj -= np.round(rkj / box) * box
    nij = np.linalg.norm(rij, axis=1)
    nkj = np.linalg.norm(rkj, axis=1)
    cos_t = np.einsum("ij,ij->i", rij, rkj) / (nij * nkj)
    cos_t = np.clip(cos_t, -1.0, 1.0)
    theta = np.arccos(cos_t)
    energy = float(np.sum(kang * (theta - theta0) ** 2))
    # dE/dtheta, with the standard angle-gradient geometry.
    dedt = 2 * kang * (theta - theta0)
    sin_t = np.sqrt(np.maximum(1.0 - cos_t**2, 1e-12))
    # Unit vectors perpendicular to each arm, in the angle plane.
    fi = (rij * (cos_t / nij)[:, None] - rkj / nkj[:, None]) / (nij * sin_t)[:, None]
    fk = (rkj * (cos_t / nkj)[:, None] - rij / nij[:, None]) / (nkj * sin_t)[:, None]
    fi *= dedt[:, None]
    fk *= dedt[:, None]
    np.add.at(forces, ai, -fi)
    np.add.at(forces, ak, -fk)
    np.add.at(forces, aj, fi + fk)
    return energy, forces


def exclusion_corrections(
    positions: np.ndarray,
    pairs: List[Tuple[int, int]],
    charges: np.ndarray,
    box: np.ndarray,
    beta: float,
) -> Tuple[float, np.ndarray]:
    """Remove non-bonded interactions between excluded (bonded) pairs.

    Bonded (1-2) pairs must not interact through LJ or Coulomb.  With
    Ewald electrostatics the exclusion has two parts: subtract the
    real-space screened term ``qq erfc(beta r)/r`` *and* cancel the
    reciprocal-space contribution ``qq erf(beta r)/r`` that PME
    unavoidably includes for every pair — together the full ``qq/r``
    plus LJ.  Returns (energy_correction, force_correction) to *add* to
    the totals.
    """
    forces = np.zeros_like(positions)
    if not pairs:
        return 0.0, forces
    arr = np.asarray(pairs, dtype=np.int64)
    i, j = arr[:, 0], arr[:, 1]
    d = positions[i] - positions[j]
    d -= np.round(d / box) * box
    r2 = np.einsum("ij,ij->i", d, d)
    r = np.sqrt(r2)
    qq = charges[i] * charges[j]
    # Full Coulomb (erfc + erf parts reassemble 1/r).
    e_coul = qq / r
    dedr_coul = -qq / r2
    s6 = (LJ_SIGMA**2 / r2) ** 3
    e_lj = 4 * LJ_EPSILON * (s6**2 - s6)
    dedr_lj = 4 * LJ_EPSILON * (-12 * s6**2 + 6 * s6) / r
    energy = -float(np.sum(e_coul + e_lj))
    fmag = (dedr_coul + dedr_lj) / r  # minus the pair force
    fvec = fmag[:, None] * d
    np.add.at(forces, i, fvec)
    np.add.at(forces, j, -fvec)
    return energy, forces


def nonbonded_instructions(n_pairs: int, qpx: bool = True) -> float:
    """Simulated instruction count for a non-bonded kernel invocation.

    The QPX path retires PAIR_FLOPS/pair on the 4-wide unit with the
    additional 15.8% from the L1P load-to-use-distance tuning; the
    scalar path retires one flop per instruction.
    """
    if n_pairs < 0:
        raise ValueError("pair count must be >= 0")
    if qpx:
        return n_pairs * PAIR_FLOPS / (4.0 * QPX_SPEEDUP)
    return n_pairs * PAIR_FLOPS


def nonbonded_instructions_tuned(n_pairs: int, tuned: bool = True) -> float:
    """QPX instruction count with / without the L1P tuning (+15.8%)."""
    base = n_pairs * PAIR_FLOPS / 4.0
    return base / QPX_SPEEDUP if tuned else base
