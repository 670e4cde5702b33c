"""2D pencil decomposition geometry for the 3D FFT (§IV-A).

An Nx x Ny x Nz complex grid is decomposed over a PR x PC processor
grid.  Each phase of the 3D FFT owns *pencils* along one axis:

* **Z layout**   — chare (r, c) owns x in X_r, y in Y_c, all z
* **Y layout**   — chare (r, c) owns x in X_r, all y, z in Z_c
* **X layout**   — chare (r, c) owns all x, y in Y'_r, z in Z_c

where X is split into PR ranges, Y into PC ranges (Z layout) and PR
ranges (X layout), and Z into PC ranges.  The Z->Y transpose exchanges
blocks within a *row* of the chare grid (PC messages per chare), the
Y->X transpose within a *column* (PR messages per chare).  At the
strong-scaling limit each chare holds a single pencil and every
transpose message carries one line of the grid or less — the
fine-grained message pattern CmiDirectManytomany accelerates.

Grids may be non-cubic (NAMD's PME grids are, e.g. ApoA1's
108 x 108 x 80); a bare int means a cubic grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

__all__ = ["split_ranges", "choose_grid", "PencilGrid"]

GridSize = Union[int, Tuple[int, int, int]]


def _shape3(n: GridSize) -> Tuple[int, int, int]:
    if isinstance(n, int):
        return (n, n, n)
    shape = tuple(int(v) for v in n)
    if len(shape) != 3:
        raise ValueError(f"grid size must be an int or 3-tuple, got {n!r}")
    return shape


def split_ranges(n: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` contiguous (start, stop) ranges.

    Sizes differ by at most one; every range is non-empty, so ``parts``
    must not exceed ``n``.
    """
    if parts < 1 or parts > n:
        raise ValueError(f"cannot split {n} into {parts} non-empty parts")
    base, extra = divmod(n, parts)
    out = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append((start, start + size))
        start += size
    return out


def choose_grid(nchares: int, n: GridSize) -> Tuple[int, int]:
    """Choose a near-square PR x PC = nchares grid valid for size n.

    PR splits X and (in the X layout) Y; PC splits Y and Z — so
    PR <= min(Nx, Ny) and PC <= min(Ny, Nz).
    """
    if nchares < 1:
        raise ValueError("need at least one chare")
    nx, ny, nz = _shape3(n)
    pr_max = min(nx, ny)
    pc_max = min(ny, nz)
    best = None
    for pr in range(1, nchares + 1):
        if nchares % pr:
            continue
        pc = nchares // pr
        if pr <= pr_max and pc <= pc_max:
            # Prefer the most square admissible factorization.
            score = abs(pr - pc)
            if best is None or score < best[0]:
                best = (score, pr, pc)
    if best is None:
        raise ValueError(
            f"no PR*PC={nchares} grid fits problem size {_shape3(n)}"
        )
    return best[1], best[2]


@dataclass(frozen=True)
class PencilGrid:
    """Static geometry of one pencil-decomposed 3D FFT."""

    n: GridSize
    pr: int
    pc: int

    def __post_init__(self) -> None:
        nx, ny, nz = _shape3(self.n)
        if min(nx, ny, nz) < 1:
            raise ValueError("grid size must be >= 1")
        if self.pr > min(nx, ny) or self.pc > min(ny, nz):
            raise ValueError("processor grid exceeds problem size")
        object.__setattr__(self, "shape3", (nx, ny, nz))
        object.__setattr__(self, "x_ranges", split_ranges(nx, self.pr))
        object.__setattr__(self, "y_ranges", split_ranges(ny, self.pc))
        object.__setattr__(self, "y2_ranges", split_ranges(ny, self.pr))
        object.__setattr__(self, "z_ranges", split_ranges(nz, self.pc))

    @property
    def nchares(self) -> int:
        return self.pr * self.pc

    @property
    def nx(self) -> int:
        return self.shape3[0]

    @property
    def ny(self) -> int:
        return self.shape3[1]

    @property
    def nz(self) -> int:
        return self.shape3[2]

    # -- shapes ---------------------------------------------------------------
    def z_shape(self, r: int, c: int) -> Tuple[int, int, int]:
        (x0, x1), (y0, y1) = self.x_ranges[r], self.y_ranges[c]
        return (x1 - x0, y1 - y0, self.nz)

    def y_shape(self, r: int, c: int) -> Tuple[int, int, int]:
        (x0, x1), (z0, z1) = self.x_ranges[r], self.z_ranges[c]
        return (x1 - x0, self.ny, z1 - z0)

    def x_shape(self, r: int, c: int) -> Tuple[int, int, int]:
        (y0, y1), (z0, z1) = self.y2_ranges[r], self.z_ranges[c]
        return (self.nx, y1 - y0, z1 - z0)

    # -- message sizes -----------------------------------------------------------
    def zy_block_bytes(self, r: int, c: int, k: int) -> int:
        """Bytes of the Z->Y block (r,c) sends to (r,k) (complex128)."""
        (x0, x1), (y0, y1) = self.x_ranges[r], self.y_ranges[c]
        (z0, z1) = self.z_ranges[k]
        return (x1 - x0) * (y1 - y0) * (z1 - z0) * 16

    def yx_block_bytes(self, r: int, c: int, k: int) -> int:
        """Bytes of the Y->X block (r,c) sends to (k,c)."""
        (x0, x1), (z0, z1) = self.x_ranges[r], self.z_ranges[c]
        (y0, y1) = self.y2_ranges[k]
        return (x1 - x0) * (y1 - y0) * (z1 - z0) * 16

    # -- reference scatter/gather (tests & drivers) ------------------------------
    def scatter_z(self, full: np.ndarray) -> dict:
        """Cut a full grid into the Z-layout blocks."""
        if full.shape != self.shape3:
            raise ValueError("array shape does not match grid")
        out = {}
        for r in range(self.pr):
            for c in range(self.pc):
                (x0, x1), (y0, y1) = self.x_ranges[r], self.y_ranges[c]
                out[(r, c)] = np.ascontiguousarray(full[x0:x1, y0:y1, :])
        return out

    def gather_x(self, blocks: dict) -> np.ndarray:
        """Reassemble a full array from X-layout blocks."""
        full = np.empty(self.shape3, dtype=np.complex128)
        for r in range(self.pr):
            for c in range(self.pc):
                (y0, y1), (z0, z1) = self.y2_ranges[r], self.z_ranges[c]
                full[:, y0:y1, z0:z1] = blocks[(r, c)]
        return full

    def gather_z(self, blocks: dict) -> np.ndarray:
        full = np.empty(self.shape3, dtype=np.complex128)
        for r in range(self.pr):
            for c in range(self.pc):
                (x0, x1), (y0, y1) = self.x_ranges[r], self.y_ranges[c]
                full[x0:x1, y0:y1, :] = blocks[(r, c)]
        return full
