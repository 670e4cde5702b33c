"""Smooth Particle Mesh Ewald (reciprocal space) — real math (§IV-B2).

Implements the Essmann et al. smooth PME used by NAMD for long-range
electrostatics in an orthorhombic periodic box:

1. spread point charges onto a regular grid with cardinal B-splines;
2. 3D FFT of the charge grid;
3. multiply by the Ewald Green's function (with B-spline Euler factors);
4. energy from the reciprocal sum; inverse FFT gives the potential
   grid;
5. interpolate per-atom forces with B-spline derivatives.

Units are Gaussian electrostatic (charges in e, lengths in Angstrom,
energies in e^2/A; multiply by 332.0636 for kcal/mol).  The test suite
validates the implementation against a direct Ewald reciprocal sum and
against numerical gradients.

The distributed version of steps 2-4 runs over the Charm++ runtime via
the pencil FFT (see :mod:`repro.namd.charm_app`); this module holds the
kernels both versions share.

Loop-order contract: spreading and interpolation run without Python
loops over the ``order**3`` spline offsets, but each does the float
operations of the ``(j, k, l)`` loop in that loop's order (see each
function), so results are byte-identical to the loop form that
``tests/namd/test_kernel_identity.py`` keeps as a reference.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .erfc import erfc

__all__ = [
    "bspline_weights",
    "spread_charges",
    "greens_function",
    "pme_reciprocal",
    "interpolate_forces",
    "direct_ewald_reciprocal",
    "ewald_self_energy",
    "ewald_real_space",
]


def bspline_weights(frac: np.ndarray, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cardinal B-spline values and derivatives for charge spreading.

    ``frac`` — fractional offsets in [0, 1) of each particle from its
    base grid point, shape (n,).  Returns ``(w, dw)`` of shape
    (n, order): the spline weight and its derivative at each of the
    ``order`` grid points the particle touches (offsets 0..order-1
    *below* the particle: grid point ``floor(u) - order + 1 + j``).
    """
    if order < 2:
        raise ValueError("B-spline order must be >= 2")
    frac = np.asarray(frac, dtype=np.float64)
    n = frac.shape[0]
    # M_2 on the two nearest points.
    w = np.zeros((n, order))
    w[:, 0] = 1.0 - frac
    w[:, 1] = frac
    prev = w  # ends as M_{order-1} (M_2 itself at order 2), for dw
    for k in range(3, order + 1):
        # Recursion M_k(u) = u/(k-1) M_{k-1}(u) + (k-u)/(k-1) M_{k-1}(u-1)
        prev = w.copy()
        w[:, :] = 0.0
        for j in range(k):
            u = frac + (k - 1 - j)  # argument of M_k at this grid offset
            left = prev[:, j - 1] if j >= 1 else 0.0
            right = prev[:, j] if j < k - 1 else 0.0
            w[:, j] = (u * left + (k - u) * right) / (k - 1)
    # Derivative: M_n'(u) = M_{n-1}(u) - M_{n-1}(u-1), mapped to offsets.
    dw = np.zeros((n, order))
    for j in range(order):
        m_here = prev[:, j] if j < order - 1 else 0.0
        m_left = prev[:, j - 1] if j >= 1 else 0.0
        dw[:, j] = m_left - m_here
    # Note: offsets run from low to high grid index; with the recursion
    # above, w[:, j] multiplies grid point floor(u) - (order - 1) + j.
    return w, dw


def _support(positions: np.ndarray, box: np.ndarray, K: Tuple[int, int, int], order: int, window):
    """Each particle's spline support as ``(ix, iy, iz, w, dw, shape)``:
    cell indices of shape (order, n), weights of shape (3, order, n), all
    three dimensions from one :func:`bspline_weights` call (it is
    elementwise), and the shape of the grid the indices address — with a
    window, its dense slab, which must cover every support in x and y."""
    n = positions.shape[0]
    u = positions / box * np.asarray(K)  # scaled fractional coords in [0, K)
    base = np.floor(u).astype(np.int64)
    w, dw = bspline_weights((u - base).T.reshape(-1), order)
    cells = base.T[:, None, :] - (order - 1) + np.arange(order)[:, None]
    ix, iy, iz = cells[0], cells[1], cells[2] % K[2]
    if window is None:
        ix, iy, shape = ix % K[0], iy % K[1], K
    else:
        (x0, x1), (y0, y1) = window
        ix, iy, shape = ix - x0, iy - y0, (x1 - x0, y1 - y0, K[2])
        for axis, idx, width in (("x", ix, shape[0]), ("y", iy, shape[1])):
            if np.any(idx < 0) or np.any(idx >= width):
                raise ValueError(f"window does not cover {axis} spline support")
    w, dw = (a.reshape(3, n, order).transpose(0, 2, 1) for a in (w, dw))
    return ix, iy, iz, w, dw, shape


def spread_charges(
    positions: np.ndarray,
    charges: np.ndarray,
    K: Tuple[int, int, int],
    box: np.ndarray,
    order: int = 4,
    window: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None,
) -> np.ndarray:
    """Spread charges onto the grid (periodic wrap).

    With ``window=((x0, x1), (y0, y1))`` (unwrapped grid coordinates),
    spreading targets a dense local array of shape
    ``(x1-x0, y1-y0, K[2])`` instead of the full grid — the shape a
    patch sends to the PME pencils.  The window must cover the spline
    support of every particle in x and y.

    Particle ``a`` adds ``q * wx_j * wy_k * wz_l`` (left to right) to cell
    ``(j, k, l)``, and each grid point sums in ``(j, k, l, a)`` order.
    """
    positions = np.asarray(positions, dtype=np.float64)
    charges = np.asarray(charges, dtype=np.float64)
    box = np.asarray(box, dtype=np.float64)
    ix, iy, iz, (wx, wy, wz), _, shape = _support(positions, box, K, order, window)
    # Axes (j, k, l, a): one sequential scatter in the loop's order.
    terms = charges * wx[:, None, None] * wy[None, :, None] * wz[None, None]
    flat = (ix[:, None, None] * shape[1] + iy[None, :, None]) * shape[2] + iz[None, None]
    grid = np.bincount(flat.ravel(), weights=terms.ravel(), minlength=math.prod(shape))
    # With no particles bincount returns integer zeros.
    return grid.astype(np.float64, copy=False).reshape(shape)


def _bspline_euler_factor(K: int, order: int) -> np.ndarray:
    """|b(m)|^2 for one dimension (Essmann eq. 4.4)."""
    m = np.arange(K)
    mn = _bspline_at_integers(order)  # M_n(1..n-1)
    phase = np.exp(2j * np.pi * np.outer(m, np.arange(order - 1)) / K)
    denom = phase @ mn
    mag2 = np.abs(denom) ** 2
    # Avoid division blowups where the denominator vanishes (odd orders
    # at the Nyquist frequency); those modes get zero weight.
    out = np.zeros(K)
    ok = mag2 > 1e-12
    out[ok] = 1.0 / mag2[ok]
    return out


def _bspline_at_integers(order: int) -> np.ndarray:
    """M_order evaluated at integer points 1..order-1."""
    # M_2(x) = 1 - |x-1| on [0,2]
    vals = {1: 1.0}  # M_2(1) = 1
    cur = {1: 1.0}
    for n in range(3, order + 1):
        nxt = {}
        for x in range(1, n):
            a = cur.get(x, 0.0)  # M_{n-1}(x)
            b = cur.get(x - 1, 0.0)  # M_{n-1}(x-1)
            nxt[x] = (x * a + (n - x) * b) / (n - 1)
        cur = nxt
    return np.array([cur.get(x, 0.0) for x in range(1, order)])


def greens_function(
    K: Tuple[int, int, int], box: np.ndarray, beta: float, order: int = 4
) -> np.ndarray:
    """The PME reciprocal-space kernel C(m) (zero at m = 0).

    ``E = 1/2 * sum_m C(m) |FFT(Q)(m)|^2`` and the potential grid is
    ``phi = Ntot * IFFT(C * FFT(Q))``.
    """
    box = np.asarray(box, dtype=np.float64)
    V = float(np.prod(box))
    mx = np.fft.fftfreq(K[0]) * K[0] / box[0]
    my = np.fft.fftfreq(K[1]) * K[1] / box[1]
    mz = np.fft.fftfreq(K[2]) * K[2] / box[2]
    m2 = (
        mx[:, None, None] ** 2 + my[None, :, None] ** 2 + mz[None, None, :] ** 2
    )
    bx = _bspline_euler_factor(K[0], order)
    by = _bspline_euler_factor(K[1], order)
    bz = _bspline_euler_factor(K[2], order)
    b2 = bx[:, None, None] * by[None, :, None] * bz[None, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        C = np.exp(-(np.pi**2) * m2 / beta**2) / m2
    C[0, 0, 0] = 0.0
    return C * b2 / (np.pi * V)


def pme_reciprocal(
    positions: np.ndarray,
    charges: np.ndarray,
    box: np.ndarray,
    K: Tuple[int, int, int],
    beta: float,
    order: int = 4,
) -> Tuple[float, np.ndarray]:
    """Full single-node reciprocal PME: returns (energy, forces)."""
    Q = spread_charges(positions, charges, K, box, order)
    C = greens_function(K, box, beta, order)
    F = np.fft.fftn(Q)
    energy = 0.5 * float(np.sum(C * np.abs(F) ** 2))
    Ntot = int(np.prod(K))
    phi = np.real(np.fft.ifftn(C * F)) * Ntot
    forces = interpolate_forces(positions, charges, phi, box, K, order)
    return energy, forces


def interpolate_forces(
    positions: np.ndarray,
    charges: np.ndarray,
    phi: np.ndarray,
    box: np.ndarray,
    K: Tuple[int, int, int],
    order: int = 4,
    window: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None,
) -> np.ndarray:
    """Forces from the potential grid via B-spline derivative weights.

    ``phi`` is the full grid, or — with ``window`` — the dense local
    slab ``(x1-x0, y1-y0, K[2])`` in unwrapped coordinates (the shape a
    patch receives back from the PME pencils), which must cover every
    particle's spline support in x and y.

    The x force term of cell ``(j, k, l)`` is ``q * dwx_j * wy_k * wz_l *
    phi * sx`` (left to right; y and z alike), and each component starts
    at 0.0 and subtracts its terms one at a time in ``(j, k, l)`` order.
    """
    positions = np.asarray(positions, dtype=np.float64)
    charges = np.asarray(charges, dtype=np.float64)
    box = np.asarray(box, dtype=np.float64)
    n = positions.shape[0]
    ix, iy, iz, (wx, wy, wz), (dwx, dwy, dwz), _ = _support(positions, box, K, order, window)
    # Axes (j, k, l, a), as in spread_charges.
    p = phi[ix[:, None, None], iy[None, :, None], iz[None, None]]
    wx, dwx, wy, dwy = wx[:, None, None], dwx[:, None, None], wy[None, :, None], dwy[None, :, None]
    wz, dwz = wz[None, None], dwz[None, None]
    terms = (
        charges * dwx * wy * wz * p * (K[0] / box[0]),
        charges * wx * dwy * wz * p * (K[1] / box[1]),
        charges * wx * wy * dwz * p * (K[2] / box[2]),
    )
    forces = np.empty((n, 3))
    for axis, term in enumerate(terms):
        # ((0.0 - t_0) - t_1) - ..., t in (j, k, l) order: the loop's `-=`.
        forces[:, axis] = np.subtract.reduce(term.reshape(order**3, n), axis=0, initial=0.0)
    return forces


# ---------- references for validation -----------------------------------------

def direct_ewald_reciprocal(
    positions: np.ndarray,
    charges: np.ndarray,
    box: np.ndarray,
    beta: float,
    mmax: int = 8,
) -> Tuple[float, np.ndarray]:
    """Direct (exact) Ewald reciprocal sum — O(N * mmax^3) reference."""
    positions = np.asarray(positions, dtype=np.float64)
    box = np.asarray(box, dtype=np.float64)
    V = float(np.prod(box))
    n = positions.shape[0]
    energy = 0.0
    forces = np.zeros((n, 3))
    for m1 in range(-mmax, mmax + 1):
        for m2 in range(-mmax, mmax + 1):
            for m3 in range(-mmax, mmax + 1):
                if m1 == 0 and m2 == 0 and m3 == 0:
                    continue
                m = np.array([m1 / box[0], m2 / box[1], m3 / box[2]])
                msq = float(m @ m)
                factor = math.exp(-(math.pi**2) * msq / beta**2) / msq
                phase = 2 * np.pi * positions @ m
                S = np.sum(charges * np.exp(1j * phase))
                energy += factor * abs(S) ** 2
                coef = (1.0 / (np.pi * V)) * factor
                # F_i = -dE/dr_i = (2/V) f(m) q_i m Im[conj(S) e^{i phase_i}]
                forces += (
                    coef
                    * charges[:, None]
                    * np.imag(np.conj(S) * np.exp(1j * phase))[:, None]
                    * (2 * np.pi * m)[None, :]
                )
    energy *= 1.0 / (2 * np.pi * V)
    return energy, forces


def ewald_self_energy(charges: np.ndarray, beta: float) -> float:
    """Self-interaction correction: -beta/sqrt(pi) * sum q^2."""
    return -beta / math.sqrt(math.pi) * float(np.sum(np.asarray(charges) ** 2))


def ewald_real_space(
    positions: np.ndarray,
    charges: np.ndarray,
    box: np.ndarray,
    beta: float,
    cutoff: float,
) -> Tuple[float, np.ndarray]:
    """Real-space Ewald (erfc-screened Coulomb) with minimum image.

    O(N^2) vectorized pair sum — reference/sequential path; the cell
    list in :mod:`repro.namd.patches` bounds the cost for larger N.
    """
    positions = np.asarray(positions, dtype=np.float64)
    charges = np.asarray(charges, dtype=np.float64)
    box = np.asarray(box, dtype=np.float64)
    n = positions.shape[0]
    delta = positions[:, None, :] - positions[None, :, :]
    delta -= np.round(delta / box) * box
    r2 = np.sum(delta**2, axis=-1)
    np.fill_diagonal(r2, np.inf)
    mask = r2 < cutoff**2
    r = np.sqrt(np.where(mask, r2, 1.0))
    qq = charges[:, None] * charges[None, :]
    erfc_br = erfc(beta * r)
    e_pair = np.where(mask, qq * erfc_br / r, 0.0)
    energy = 0.5 * float(np.sum(e_pair))
    # dE/dr for the screened Coulomb pair term.
    dedr = np.where(
        mask,
        -qq
        * (
            erfc_br / r2
            + 2 * beta / math.sqrt(math.pi) * np.exp(-(beta**2) * r2) / r
        ),
        0.0,
    )
    fmag = -dedr / r  # force magnitude along delta
    forces = np.sum(np.where(mask[..., None], fmag[..., None] * delta, 0.0), axis=1)
    return energy, forces
