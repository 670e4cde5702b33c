"""The PME and pair kernels are byte-identical to the loops they replace.

``spread_charges``, ``interpolate_forces`` and ``pair_forces`` run
without Python loops, and ``bspline_weights`` runs its recursion once
for both weights and derivatives, but each keeps the float operations
it replaced and their order (the loop-order contracts in the module
docstrings), so every result is the same bytes.  The loop
implementations live on here as references,
as the heap-only reference scheduler does in
``tests/sim/test_determinism.py``; hypothesis drives both over orders
4 and 6, full and windowed grids, same and distinct blocks, random and
lattice positions, and 1-80 particles (explicit cases add 216-atom
blocks and row counts across tile edges), and compares ``tobytes()``
(``repr`` for energies).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import erfc

from repro.namd.forces import _TILE_CELLS, LJ_EPSILON, LJ_SIGMA, pair_forces
from repro.namd.pme import bspline_weights, interpolate_forces, spread_charges


# ---------- the loop references -------------------------------------------------

def _grid_indices(positions, box, K, order):
    u = positions / box * np.asarray(K)
    base = np.floor(u).astype(np.int64)
    frac = u - base
    return base, frac


def ref_bspline_weights(frac, order):
    frac = np.asarray(frac, dtype=np.float64)
    n = frac.shape[0]
    w = np.zeros((n, order))
    w[:, 0] = 1.0 - frac
    w[:, 1] = frac
    for k in range(3, order + 1):
        prev = w.copy()
        w[:, :] = 0.0
        for j in range(k):
            u = frac + (k - 1 - j)
            left = prev[:, j - 1] if j >= 1 else 0.0
            right = prev[:, j] if j < k - 1 else 0.0
            w[:, j] = (u * left + (k - u) * right) / (k - 1)
    prev = np.zeros((n, order))
    prev[:, 0] = 1.0 - frac
    prev[:, 1] = frac
    for k in range(3, order):
        nxt = np.zeros((n, order))
        for j in range(k):
            u = frac + (k - 1 - j)
            left = prev[:, j - 1] if j >= 1 else 0.0
            right = prev[:, j] if j < k - 1 else 0.0
            nxt[:, j] = (u * left + (k - u) * right) / (k - 1)
        prev = nxt
    dw = np.zeros((n, order))
    for j in range(order):
        m_here = prev[:, j] if j < order - 1 else 0.0
        m_left = prev[:, j - 1] if j >= 1 else 0.0
        dw[:, j] = m_left - m_here
    return w, dw


def ref_spread_charges(positions, charges, K, box, order=4, window=None):
    positions = np.asarray(positions, dtype=np.float64)
    charges = np.asarray(charges, dtype=np.float64)
    box = np.asarray(box, dtype=np.float64)
    Kx, Ky, Kz = K
    base, frac = _grid_indices(positions, box, K, order)
    wx, _ = ref_bspline_weights(frac[:, 0], order)
    wy, _ = ref_bspline_weights(frac[:, 1], order)
    wz, _ = ref_bspline_weights(frac[:, 2], order)
    if window is None:
        grid = np.zeros(K)
        for j in range(order):
            ix = (base[:, 0] - (order - 1) + j) % Kx
            for k in range(order):
                iy = (base[:, 1] - (order - 1) + k) % Ky
                wxy = charges * wx[:, j] * wy[:, k]
                for l in range(order):
                    iz = (base[:, 2] - (order - 1) + l) % Kz
                    np.add.at(grid, (ix, iy, iz), wxy * wz[:, l])
        return grid
    (x0, x1), (y0, y1) = window
    grid = np.zeros((x1 - x0, y1 - y0, Kz))
    for j in range(order):
        ix = base[:, 0] - (order - 1) + j - x0
        if np.any(ix < 0) or np.any(ix >= x1 - x0):
            raise ValueError("window does not cover x spline support")
        for k in range(order):
            iy = base[:, 1] - (order - 1) + k - y0
            if np.any(iy < 0) or np.any(iy >= y1 - y0):
                raise ValueError("window does not cover y spline support")
            wxy = charges * wx[:, j] * wy[:, k]
            for l in range(order):
                iz = (base[:, 2] - (order - 1) + l) % Kz
                np.add.at(grid, (ix, iy, iz), wxy * wz[:, l])
    return grid


def ref_interpolate_forces(positions, charges, phi, box, K, order=4, window=None):
    positions = np.asarray(positions, dtype=np.float64)
    box = np.asarray(box, dtype=np.float64)
    Kx, Ky, Kz = K
    n = positions.shape[0]
    base, frac = _grid_indices(positions, box, K, order)
    wx, dwx = ref_bspline_weights(frac[:, 0], order)
    wy, dwy = ref_bspline_weights(frac[:, 1], order)
    wz, dwz = ref_bspline_weights(frac[:, 2], order)
    forces = np.zeros((n, 3))
    sx, sy, sz = Kx / box[0], Ky / box[1], Kz / box[2]
    if window is not None:
        (x0, _x1), (y0, _y1) = window
    for j in range(order):
        for k in range(order):
            for l in range(order):
                if window is None:
                    ix = (base[:, 0] - (order - 1) + j) % Kx
                    iy = (base[:, 1] - (order - 1) + k) % Ky
                else:
                    ix = base[:, 0] - (order - 1) + j - x0
                    iy = base[:, 1] - (order - 1) + k - y0
                iz = (base[:, 2] - (order - 1) + l) % Kz
                p = phi[ix, iy, iz]
                forces[:, 0] -= charges * dwx[:, j] * wy[:, k] * wz[:, l] * p * sx
                forces[:, 1] -= charges * wx[:, j] * dwy[:, k] * wz[:, l] * p * sy
                forces[:, 2] -= charges * wx[:, j] * wy[:, k] * dwz[:, l] * p * sz
    return forces


def ref_pair_forces(pos_i, pos_j, q_i, q_j, box, cutoff, beta, same_block=False):
    pos_i = np.asarray(pos_i)
    pos_j = np.asarray(pos_j)
    delta = pos_i[:, None, :] - pos_j[None, :, :]
    delta -= np.round(delta / box) * box
    r2 = np.einsum("ijk,ijk->ij", delta, delta)
    if same_block:
        iu = np.triu_indices(r2.shape[0], k=1)
        mask = np.zeros_like(r2, dtype=bool)
        mask[iu] = True
        mask &= r2 < cutoff**2
    else:
        mask = r2 < cutoff**2
    n_pairs = int(np.count_nonzero(mask))
    if n_pairs == 0:
        return 0.0, np.zeros_like(pos_i), np.zeros_like(pos_j), 0
    r2s = np.where(mask, r2, 1.0)
    r = np.sqrt(r2s)
    qq = q_i[:, None] * q_j[None, :]
    e_coul = qq * erfc(beta * r) / r
    dedr_coul = -qq * (
        erfc(beta * r) / r2s
        + 2 * beta / math.sqrt(math.pi) * np.exp(-(beta**2) * r2s) / r
    )
    s6 = (LJ_SIGMA**2 / r2s) ** 3
    e_lj = 4 * LJ_EPSILON * (s6**2 - s6)
    dedr_lj = 4 * LJ_EPSILON * (-12 * s6**2 + 6 * s6) / r
    e_pair = np.where(mask, e_coul + e_lj, 0.0)
    dedr = np.where(mask, dedr_coul + dedr_lj, 0.0)
    energy = float(np.sum(e_pair))
    fmag = -dedr / r
    fvec = np.where(mask[..., None], fmag[..., None] * delta, 0.0)
    f_i = np.sum(fvec, axis=1)
    f_j = -np.sum(fvec, axis=0)
    if same_block:
        f_i = f_i + f_j
        f_j = f_i
    return energy, f_i, f_j, n_pairs


# ---------- generated cases -------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(order=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
def test_bspline_weights_match_the_two_pass_recursion_bytes(order, seed, n):
    frac = np.random.default_rng(seed).random(n)
    got, want = bspline_weights(frac, order), ref_bspline_weights(frac, order)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def _grid_case(seed, n, order, windowed):
    """Particles in a random box and grid, plus a window that covers
    their spline support with a random margin (None for the full grid)."""
    rng = np.random.default_rng(seed)
    K = tuple(int(k) for k in rng.integers(order + 2, 20, 3))
    box = rng.uniform(8.0, 40.0, 3)
    pos = rng.random((n, 3)) * box
    q = rng.standard_normal(n)
    window = None
    if windowed:
        base = np.floor(pos / box * np.asarray(K)).astype(np.int64)
        lo = base.min(axis=0) - (order - 1) - rng.integers(0, 3, 3)
        hi = base.max(axis=0) + 1 + rng.integers(0, 3, 3)
        window = ((int(lo[0]), int(hi[0])), (int(lo[1]), int(hi[1])))
    return pos, q, K, box, window, rng


grid_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    order=st.sampled_from([4, 6]),
    windowed=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(**grid_cases)
@example(seed=0, n=1, order=4, windowed=False)
@example(seed=1, n=1, order=6, windowed=True)
def test_spread_charges_matches_the_loop_bytes(seed, n, order, windowed):
    pos, q, K, box, window, _ = _grid_case(seed, n, order, windowed)
    want = ref_spread_charges(pos, q, K, box, order, window)
    got = spread_charges(pos, q, K, box, order, window)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(**grid_cases)
@example(seed=0, n=1, order=4, windowed=False)
@example(seed=1, n=1, order=6, windowed=True)
def test_interpolate_forces_matches_the_loop_bytes(seed, n, order, windowed):
    pos, q, K, box, window, rng = _grid_case(seed, n, order, windowed)
    if window is None:
        shape = K
    else:
        (x0, x1), (y0, y1) = window
        shape = (x1 - x0, y1 - y0, K[2])
    phi = rng.standard_normal(shape)
    want = ref_interpolate_forces(pos, q, phi, box, K, order, window)
    got = interpolate_forces(pos, q, phi, box, K, order, window)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("window", [None, ((2, 9), (-3, 5))])
def test_kernels_match_the_loop_bytes_with_no_particles(window):
    pos, q = np.zeros((0, 3)), np.zeros(0)
    K, box = (8, 8, 8), np.array([10.0, 11.0, 12.0])
    want = ref_spread_charges(pos, q, K, box, 4, window)
    got = spread_charges(pos, q, K, box, 4, window)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    phi = np.ones(want.shape)
    got = interpolate_forces(pos, q, phi, box, K, 4, window)
    assert got.shape == (0, 3)
    assert got.tobytes() == ref_interpolate_forces(pos, q, phi, box, K, 4, window).tobytes()


def _assert_pair_bytes(got, want):
    assert repr(got[0]) == repr(want[0])
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2].tobytes() == want[2].tobytes()
    assert got[3] == want[3]


def _same_block_over(rows):
    """The smallest same block whose last row tile holds ``rows`` rows."""
    return next(n for n in range(2, 1000) if n > _TILE_CELLS // n and n % (_TILE_CELLS // n) == rows)


#: Rows per tile of a block against 80 columns.
_ROWS_AT_80 = _TILE_CELLS // 80


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_i=st.integers(1, 80),
    n_j=st.integers(1, 80),
    same_block=st.booleans(),
    spread=st.floats(2.0, 30.0),
    lattice=st.booleans(),
)
@example(seed=0, n_i=1, n_j=1, same_block=False, spread=2.0, lattice=False)
@example(seed=0, n_i=1, n_j=1, same_block=True, spread=2.0, lattice=False)
# The serve_mix shape: a 216-atom same block, every pair inside the cutoff.
@example(seed=0, n_i=216, n_j=216, same_block=True, spread=2.0, lattice=False)
# Row counts at, one past and one past twice a tile, distinct and same.
@example(seed=1, n_i=_ROWS_AT_80, n_j=80, same_block=False, spread=12.0, lattice=False)
@example(seed=2, n_i=_ROWS_AT_80 + 1, n_j=80, same_block=False, spread=12.0, lattice=False)
@example(seed=3, n_i=2 * _ROWS_AT_80 + 1, n_j=80, same_block=False, spread=12.0, lattice=True)
@example(seed=4, n_i=_same_block_over(1), n_j=1, same_block=True, spread=10.0, lattice=False)
@example(seed=5, n_i=_same_block_over(7), n_j=1, same_block=True, spread=20.0, lattice=True)
# Lattice blocks: coordinates coincide, so deltas are exactly 0.0.
@example(seed=6, n_i=80, n_j=80, same_block=False, spread=10.0, lattice=True)
@example(seed=7, n_i=80, n_j=1, same_block=True, spread=10.0, lattice=True)
def test_pair_forces_matches_the_reference_bytes(seed, n_i, n_j, same_block, spread, lattice):
    rng = np.random.default_rng(seed)
    box = np.array([30.0, 32.0, 34.0])
    if lattice:
        # Distinct points of an 8^3 grid: no two atoms coincide, but
        # their coordinates do.
        cells = rng.choice(8**3, n_i + n_j, replace=False)
        grid = np.stack(np.unravel_index(cells, (8, 8, 8)), axis=1) * (spread / 8)
        pos_i, pos_j = grid[:n_i], grid[n_i:]
    else:
        pos_i = rng.random((n_i, 3)) * spread
        pos_j = rng.random((n_j, 3)) * spread
    q_i = rng.standard_normal(n_i)
    q_j = rng.standard_normal(n_j)
    if same_block:
        pos_j, q_j = pos_i, q_i
    args = (pos_i, pos_j, q_i, q_j, box, 7.5, 0.35, same_block)
    _assert_pair_bytes(pair_forces(*args), ref_pair_forces(*args))


def test_pair_forces_keeps_the_sign_of_a_zero_force_component():
    """An attractive pair on one axis line: its x and z deltas are 0.0,
    so the force components there are signed zeros, which the sums must
    keep (the reference gives +0.0 on the row atom, -0.0 on the column)."""
    box = np.array([30.0, 32.0, 34.0])
    args = (np.array([[1.0, 1.0, 1.0]]), np.array([[1.0, 4.0, 1.0]]),
            np.array([1.0]), np.array([-1.0]), box, 7.5, 0.35, False)
    want = ref_pair_forces(*args)
    assert want[1][0, 0] == 0.0 and not np.signbit(want[1][0, 0])
    assert want[2][0, 0] == 0.0 and np.signbit(want[2][0, 0])
    _assert_pair_bytes(pair_forces(*args), want)


def test_pair_forces_with_no_pair_inside_the_cutoff():
    box = np.array([40.0, 40.0, 40.0])
    rng = np.random.default_rng(5)
    pos_i = rng.random((6, 3))
    pos_j = pos_i + np.array([15.0, 0.0, 0.0])  # every pair 14-16 A apart
    q = rng.standard_normal(6)
    args = (pos_i, pos_j, q, q, box, 7.5, 0.35, False)
    got = pair_forces(*args)
    assert got[3] == 0
    _assert_pair_bytes(got, ref_pair_forces(*args))


# ---------- windows that miss the spline support --------------------------------

def _window_case():
    box = np.array([10.0, 10.0, 10.0])
    pos = np.array([[5.0, 5.0, 5.0], [5.5, 4.5, 5.2]])
    q = np.array([1.0, -1.0])
    K = (16, 16, 16)
    base = np.floor(pos / box * 16).astype(np.int64)
    lo, hi = base.min(axis=0) - 3, base.max(axis=0) + 1  # order 4 support
    return pos, q, K, box, lo, hi


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("side", ["low", "high"])
def test_a_window_one_cell_short_is_refused_by_both_kernels(axis, side):
    """A window one cell short of the support raises the same named
    ValueError from interpolate_forces as from spread_charges, instead of
    reading wrapped cells (low side) or raising a bare IndexError (high)."""
    pos, q, K, box, lo, hi = _window_case()
    bounds = [[int(lo[0]), int(hi[0])], [int(lo[1]), int(hi[1])]]
    d = 0 if axis == "x" else 1
    if side == "low":
        bounds[d][0] += 1
    else:
        bounds[d][1] -= 1
    window = (tuple(bounds[0]), tuple(bounds[1]))
    phi = np.ones((bounds[0][1] - bounds[0][0], bounds[1][1] - bounds[1][0], K[2]))
    message = f"window does not cover {axis} spline support"
    with pytest.raises(ValueError, match=message):
        spread_charges(pos, q, K, box, 4, window)
    with pytest.raises(ValueError, match=message):
        interpolate_forces(pos, q, phi, box, K, 4, window)


def test_a_window_that_just_covers_the_support_is_accepted():
    pos, q, K, box, lo, hi = _window_case()
    window = ((int(lo[0]), int(hi[0])), (int(lo[1]), int(hi[1])))
    grid = spread_charges(pos, q, K, box, 4, window)
    forces = interpolate_forces(pos, q, grid, box, K, 4, window)
    assert grid.shape == (int(hi[0] - lo[0]), int(hi[1] - lo[1]), K[2])
    assert forces.shape == (2, 3)
