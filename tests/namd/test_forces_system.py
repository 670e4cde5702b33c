"""Tests for force kernels, synthetic systems and patch decomposition."""

import tracemalloc

import numpy as np
import pytest

from repro.namd.forces import (
    PAIR_FLOPS,
    QPX_SPEEDUP,
    bonded_forces,
    nonbonded_instructions,
    nonbonded_instructions_tuned,
    pair_forces,
)
from repro.namd.patches import PatchGrid
from repro.namd.system import APOA1, STMV20M, STMV100M, build_system


# ---------- systems ----------------------------------------------------------

def test_paper_specs():
    assert APOA1.n_atoms == 92_224
    assert APOA1.pme_grid == (108, 108, 80)
    assert APOA1.cutoff == 12.0
    assert STMV20M.pme_grid == (216, 1080, 864)
    assert STMV100M.pme_grid == (1080, 1080, 864)
    assert STMV100M.n_atoms > 100e6


def test_build_system_density_matches_reference():
    s = build_system(1000)
    assert s.spec.density == pytest.approx(APOA1.density, rel=0.05)


def test_build_system_neutral_and_sized():
    for n in (100, 101):
        s = build_system(n)
        assert s.n_atoms == n
        assert s.charges.sum() == pytest.approx(0.0, abs=1e-12)
        assert np.all(s.positions >= 0) and np.all(s.positions <= s.box[None, :])


def test_build_system_bonds_reference_valid_atoms():
    s = build_system(200, bond_fraction=0.5)
    assert len(s.bonds) == 50
    for (i, j, r0, k) in s.bonds:
        assert 0 <= i < 200 and 0 <= j < 200 and r0 > 0 and k > 0


def test_build_system_validates():
    with pytest.raises(ValueError):
        build_system(1)


def test_build_system_temperature_gives_motion():
    s = build_system(100, temperature=0.05)
    assert np.any(s.velocities != 0)
    p = np.sum(s.masses[:, None] * s.velocities, axis=0)
    assert np.allclose(p, 0, atol=1e-10)


# ---------- pair forces -------------------------------------------------------

def test_pair_forces_newton_third_law():
    rng = np.random.default_rng(1)
    box = np.array([20.0, 20.0, 20.0])
    pa = rng.random((8, 3)) * box
    pb = rng.random((6, 3)) * box
    qa, qb = rng.standard_normal(8) * 0.3, rng.standard_normal(6) * 0.3
    e, fa, fb, n = pair_forces(pa, pb, qa, qb, box, cutoff=8.0, beta=0.35)
    assert np.allclose(fa.sum(axis=0) + fb.sum(axis=0), 0.0, atol=1e-10)


def test_pair_forces_same_block_counts_each_pair_once():
    box = np.array([50.0, 50.0, 50.0])
    pos = np.array([[10.0, 10, 10], [12.0, 10, 10], [40.0, 40, 40]])
    q = np.array([0.3, -0.3, 0.3])
    e, fa, fb, n = pair_forces(pos, pos, q, q, box, cutoff=5.0, beta=0.35, same_block=True)
    assert n == 1  # only the first two atoms are within cutoff
    assert np.allclose(fa[2], 0)


def test_pair_forces_empty_blocks():
    box = np.array([10.0, 10.0, 10.0])
    e, fa, fb, n = pair_forces(
        np.empty((0, 3)), np.empty((0, 3)), np.empty(0), np.empty(0), box, 5.0, 0.35
    )
    assert (e, n) == (0.0, 0)


def test_pair_forces_allocates_row_tiles_not_the_pair_cube():
    """A 216-atom same block, every pair inside the cutoff (the
    serve_mix shape): the call's peak allocation stays within six
    ni*nj float planes; (ni, nj, 3) temporaries would need about 19."""
    rng = np.random.default_rng(7)
    pos = rng.random((216, 3)) * 2.0
    q = rng.standard_normal(216)
    box = np.array([30.0, 32.0, 34.0])
    tracemalloc.start()
    try:
        *_, n = pair_forces(pos, pos, q, q, box, 7.5, 0.35, same_block=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 216 * 215 // 2
    assert peak <= 6 * 216 * 216 * 8


def test_pair_forces_minimum_image():
    """Atoms across the periodic boundary interact."""
    box = np.array([20.0, 20.0, 20.0])
    pa = np.array([[0.5, 10.0, 10.0]])
    pb = np.array([[19.5, 10.0, 10.0]])  # 1.0 A apart through the wall
    q = np.array([0.3])
    e, fa, fb, n = pair_forces(pa, pb, q, -q, box, cutoff=5.0, beta=0.35)
    assert n == 1
    assert fa[0, 0] != 0


def test_bonded_forces_harmonic():
    box = np.array([100.0, 100.0, 100.0])
    pos = np.array([[0.0, 0, 0], [3.0, 0, 0]])
    bonds = [(0, 1, 2.0, 1.5)]
    e, f = bonded_forces(pos, bonds, box)
    assert e == pytest.approx(1.5 * 1.0)
    assert f[0, 0] == pytest.approx(2 * 1.5)  # pulled toward r0
    assert np.allclose(f.sum(axis=0), 0)


def test_bonded_forces_empty():
    e, f = bonded_forces(np.zeros((3, 3)), [], np.ones(3))
    assert e == 0 and np.all(f == 0)


def test_nonbonded_cost_model():
    assert nonbonded_instructions(100, qpx=False) == pytest.approx(100 * PAIR_FLOPS)
    assert nonbonded_instructions(100, qpx=True) == pytest.approx(
        100 * PAIR_FLOPS / (4 * QPX_SPEEDUP)
    )
    tuned = nonbonded_instructions_tuned(100, tuned=True)
    untuned = nonbonded_instructions_tuned(100, tuned=False)
    assert untuned / tuned == pytest.approx(QPX_SPEEDUP)
    with pytest.raises(ValueError):
        nonbonded_instructions(-1)


# ---------- patches -----------------------------------------------------------

def test_patch_grid_respects_cutoff():
    g = PatchGrid.for_cutoff((108.86, 108.86, 77.76), 12.0)
    assert g.dims == (9, 9, 6)
    for d in range(3):
        assert g.box[d] / g.dims[d] >= 12.0


def test_patch_grid_validates():
    with pytest.raises(ValueError):
        PatchGrid.for_cutoff((10, 10, 10), 0.0)


def test_patch_index_roundtrip():
    g = PatchGrid((30.0, 30.0, 30.0), (2, 3, 4))
    for i in range(g.n_patches):
        assert g.patch_index(g.patch_coords(i)) == i


def test_bin_atoms_complete_partition():
    g = PatchGrid.for_cutoff((24.0, 24.0, 24.0), 6.0)
    rng = np.random.default_rng(0)
    pos = rng.random((200, 3)) * 24.0
    bins = g.bin_atoms(pos)
    all_atoms = np.concatenate([bins[p] for p in range(g.n_patches)])
    assert sorted(all_atoms) == list(range(200))
    for p, idx in bins.items():
        cx, cy, cz = g.patch_coords(p)
        for a in idx:
            assert int(pos[a, 0] / 6.0) % 4 == cx


def test_neighbor_pairs_include_self_and_are_unique():
    g = PatchGrid((24.0, 24.0, 24.0), (2, 2, 2))
    pairs = g.neighbor_pairs()
    assert len(pairs) == len(set(pairs))
    for p in range(8):
        assert (p, p) in pairs
    # dims of 2: every patch neighbours every other (wrap).
    assert len(pairs) == 8 * 9 // 2


def test_neighbor_pairs_3x3x3():
    g = PatchGrid((36.0, 36.0, 36.0), (3, 3, 3))
    pairs = g.neighbor_pairs()
    # 27 self pairs + 27*26/2 cross pairs (every patch neighbours all
    # others in a 3-wide torus).
    assert len(pairs) == 27 + 27 * 26 // 2


def test_pme_footprint_covers_patch():
    g = PatchGrid((20.0, 20.0, 20.0), (2, 2, 2))
    (x0, x1), (y0, y1) = g.pme_footprint(0, (20, 20, 20), order=4)
    # Patch 0 covers x in [0, 10) -> grid [0, 10); with margin 2 and
    # order 4 the window must extend at least 4 below and 2 above.
    assert x0 <= -4 and x1 >= 12
    assert y0 <= -4 and y1 >= 12
