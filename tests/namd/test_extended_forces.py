"""Tests for angles and exclusion corrections."""

import numpy as np
import pytest

from repro.namd.forces import angle_forces, exclusion_corrections
from repro.namd.simulation import SequentialMD
from repro.namd.system import build_system


BOX = np.array([100.0, 100.0, 100.0])


# ---------- angle forces ------------------------------------------------------

def test_angle_energy_at_equilibrium_is_zero():
    pos = np.array([[1.0, 0, 0], [0.0, 0, 0], [0.0, 1.0, 0]])
    e, f = angle_forces(pos, [(0, 1, 2, np.pi / 2, 3.0)], BOX)
    assert e == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(f, 0.0, atol=1e-10)


def test_angle_energy_quadratic_in_displacement():
    def energy(theta):
        pos = np.array(
            [[np.cos(theta), np.sin(theta), 0], [0.0, 0, 0], [1.0, 0, 0]]
        )
        e, _ = angle_forces(pos, [(0, 1, 2, np.pi / 3, 2.0)], BOX)
        return e

    d = 0.1
    assert energy(np.pi / 3 + d) == pytest.approx(2.0 * d**2, rel=1e-6)
    assert energy(np.pi / 3 - d) == pytest.approx(2.0 * d**2, rel=1e-6)


def test_angle_forces_match_numerical_gradient():
    rng = np.random.default_rng(4)
    pos = rng.random((3, 3)) * 5 + 10
    angles = [(0, 1, 2, 1.8, 2.5)]
    _, f = angle_forces(pos, angles, BOX)
    h = 1e-6
    for atom in range(3):
        for d in range(3):
            pp, pm = pos.copy(), pos.copy()
            pp[atom, d] += h
            pm[atom, d] -= h
            ep, _ = angle_forces(pp, angles, BOX)
            em, _ = angle_forces(pm, angles, BOX)
            assert f[atom, d] == pytest.approx(-(ep - em) / (2 * h), rel=1e-4, abs=1e-8)


def test_angle_forces_conserve_momentum():
    rng = np.random.default_rng(5)
    pos = rng.random((9, 3)) * 8 + 5
    angles = [(0, 1, 2, 1.9, 1.0), (3, 4, 5, 2.0, 2.0), (6, 7, 8, 1.5, 0.5)]
    _, f = angle_forces(pos, angles, BOX)
    assert np.allclose(f.sum(axis=0), 0.0, atol=1e-10)


def test_angle_forces_empty():
    e, f = angle_forces(np.zeros((2, 3)), [], BOX)
    assert e == 0.0 and np.all(f == 0)


# ---------- exclusions ---------------------------------------------------------

def test_exclusion_correction_cancels_pair_interaction():
    """Real-space + reciprocal + correction = no interaction for the
    excluded pair (checked as full qq/r + LJ removal)."""
    from repro.namd.forces import LJ_EPSILON, LJ_SIGMA, pair_forces

    pos = np.array([[10.0, 10, 10], [12.1, 10, 10]])
    q = np.array([0.4, -0.4])
    beta = 0.35
    e_corr, f_corr = exclusion_corrections(pos, [(0, 1)], q, BOX, beta)
    r = 2.1
    qq = -0.16
    s6 = (LJ_SIGMA**2 / r**2) ** 3
    e_lj = 4 * LJ_EPSILON * (s6**2 - s6)
    assert e_corr == pytest.approx(-(qq / r + e_lj), rel=1e-12)


def test_exclusion_forces_match_numerical_gradient():
    pos = np.array([[10.0, 10, 10], [11.9, 10.7, 9.6]])
    q = np.array([0.4, -0.4])
    pairs = [(0, 1)]
    _, f = exclusion_corrections(pos, pairs, q, BOX, 0.35)
    h = 1e-6
    for atom, d in ((0, 0), (1, 2)):
        pp, pm = pos.copy(), pos.copy()
        pp[atom, d] += h
        pm[atom, d] -= h
        ep, _ = exclusion_corrections(pp, pairs, q, BOX, 0.35)
        em, _ = exclusion_corrections(pm, pairs, q, BOX, 0.35)
        assert f[atom, d] == pytest.approx(-(ep - em) / (2 * h), rel=1e-5)


def test_exclusions_from_system_include_bonds_and_angles():
    s = build_system(90, bond_fraction=0.5, angle_fraction=0.3, seed=1)
    excl = set(s.exclusions())
    for (i, j, _r0, _k) in s.bonds:
        assert (min(i, j), max(i, j)) in excl
    for (i, _j, k, _t0, _ka) in s.angles:
        assert (min(i, k), max(i, k)) in excl
    assert len(s.angles) > 0


def test_energy_conservation_with_angles_and_exclusions():
    s = build_system(120, temperature=0.004, bond_fraction=0.4,
                     angle_fraction=0.3, seed=9)
    md = SequentialMD(s, pme_every=1, dt=0.004)
    assert md.exclusion_pairs
    es = md.run(30)
    totals = [e.total for e in es]
    drift = abs(totals[-1] - totals[0]) / abs(totals[0])
    assert drift < 5e-3
