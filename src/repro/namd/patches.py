"""Spatial patch decomposition (NAMD's hybrid decomposition).

NAMD splits the box into *patches* no smaller than the cutoff, so that
all non-bonded interactions involve atoms of a patch and its 26
neighbours; *compute objects* handle each patch pair.  This module
provides the geometry: patch grid construction, atom binning, and the
neighbour-pair list with minimum-image wrap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["PatchGrid"]

#: Atom drift (Angstrom) a patch's PME footprint allows beyond its extent.
DRIFT_MARGIN = 2.0


@dataclass(frozen=True)
class PatchGrid:
    """A regular grid of patches covering the periodic box."""

    box: Tuple[float, float, float]
    dims: Tuple[int, int, int]

    @classmethod
    def for_cutoff(cls, box: Sequence[float], cutoff: float) -> "PatchGrid":
        """Largest grid whose cells are at least ``cutoff`` wide."""
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        dims = tuple(max(1, int(b // cutoff)) for b in box)
        return cls(tuple(float(b) for b in box), dims)

    @property
    def n_patches(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    def patch_index(self, coords: Tuple[int, int, int]) -> int:
        cx, cy, cz = coords
        return (cx * self.dims[1] + cy) * self.dims[2] + cz

    def patch_coords(self, index: int) -> Tuple[int, int, int]:
        cz = index % self.dims[2]
        cy = (index // self.dims[2]) % self.dims[1]
        cx = index // (self.dims[1] * self.dims[2])
        return (cx, cy, cz)

    def patch_of_position(self, pos: np.ndarray) -> int:
        cell = tuple(
            min(int(pos[d] / self.box[d] * self.dims[d]), self.dims[d] - 1)
            for d in range(3)
        )
        return self.patch_index(cell)

    def bin_atoms(self, positions: np.ndarray) -> Dict[int, np.ndarray]:
        """Atom indices per patch."""
        positions = np.asarray(positions)
        scaled = positions / np.asarray(self.box) * np.asarray(self.dims)
        cells = np.minimum(scaled.astype(int), np.asarray(self.dims) - 1)
        flat = (cells[:, 0] * self.dims[1] + cells[:, 1]) * self.dims[2] + cells[:, 2]
        out: Dict[int, np.ndarray] = {}
        order = np.argsort(flat, kind="stable")
        sorted_flat = flat[order]
        boundaries = np.searchsorted(sorted_flat, np.arange(self.n_patches + 1))
        for p in range(self.n_patches):
            lo, hi = boundaries[p], boundaries[p + 1]
            if hi > lo:
                out[p] = order[lo:hi]
            else:
                out[p] = np.empty(0, dtype=np.int64)
        return out

    def neighbor_pairs(self) -> List[Tuple[int, int]]:
        """All interacting patch pairs, each once, including self-pairs.

        With periodic wrap a neighbour may coincide with the patch
        itself along a dimension of size 1 or 2; duplicates collapse.
        """
        pairs = set()
        for index in range(self.n_patches):
            cx, cy, cz = self.patch_coords(index)
            for dx, dy, dz in itertools.product((-1, 0, 1), repeat=3):
                nx = (cx + dx) % self.dims[0]
                ny = (cy + dy) % self.dims[1]
                nz = (cz + dz) % self.dims[2]
                other = self.patch_index((nx, ny, nz))
                pairs.add((min(index, other), max(index, other)))
        return sorted(pairs)

    def pme_footprint(
        self,
        patch: int,
        pme_grid: Tuple[int, int, int],
        order: int,
    ) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Unwrapped (x, y) grid-index window a patch's charges touch.

        Covers the patch's spatial extent plus :data:`DRIFT_MARGIN` of
        atom drift plus the B-spline support.  Windows are *unwrapped*
        (may extend below 0 or beyond K); the PME pencil mapping wraps
        them modulo the grid.
        """
        cx, cy, _ = self.patch_coords(patch)
        Kx, Ky, _ = pme_grid
        out = []
        for c, dim, K, b in ((cx, self.dims[0], Kx, self.box[0]), (cy, self.dims[1], Ky, self.box[1])):
            width = b / dim
            lo = (c * width - DRIFT_MARGIN) / b * K
            hi = ((c + 1) * width + DRIFT_MARGIN) / b * K
            g0 = int(np.floor(lo)) - order  # spline support below
            g1 = int(np.ceil(hi)) + 1
            out.append((g0, g1))
        return tuple(out)
