"""Validation of the PME implementation against direct Ewald."""

import math

import numpy as np
import pytest
from scipy.special import erfc as scipy_erfc

from repro.namd.pme import (
    bspline_weights,
    direct_ewald_reciprocal,
    ewald_real_space,
    ewald_self_energy,
    greens_function,
    interpolate_forces,
    pme_reciprocal,
    spread_charges,
)


@pytest.fixture(scope="module")
def small_system():
    rng = np.random.default_rng(42)
    n = 12
    box = np.array([10.0, 11.0, 9.0])
    pos = rng.random((n, 3)) * box
    q = rng.standard_normal(n)
    q -= q.mean()  # neutral
    return pos, q, box


def test_bspline_partition_of_unity():
    rng = np.random.default_rng(0)
    frac = rng.random(50)
    for order in (2, 3, 4, 5, 6):
        w, dw = bspline_weights(frac, order)
        assert np.allclose(w.sum(axis=1), 1.0)
        assert np.allclose(dw.sum(axis=1), 0.0, atol=1e-12)
        assert np.all(w >= -1e-12)


def test_bspline_order_validates():
    with pytest.raises(ValueError):
        bspline_weights(np.array([0.5]), 1)


def test_spread_conserves_charge(small_system):
    pos, q, box = small_system
    grid = spread_charges(pos, q, (16, 16, 16), box, order=4)
    assert grid.sum() == pytest.approx(q.sum(), abs=1e-12)


def test_spread_window_matches_full_grid():
    rng = np.random.default_rng(3)
    box = np.array([10.0, 10.0, 10.0])
    K = (16, 16, 16)
    pos = box / 4 + rng.random((6, 3)) * box / 2.5  # interior atoms
    q = rng.standard_normal(6)
    full = spread_charges(pos, q, K, box, 4)
    u = pos / box * 16
    x0 = int(np.floor(u[:, 0].min())) - 4
    x1 = int(np.floor(u[:, 0].max())) + 2
    y0 = int(np.floor(u[:, 1].min())) - 4
    y1 = int(np.floor(u[:, 1].max())) + 2
    win = spread_charges(pos, q, K, box, 4, window=((x0, x1), (y0, y1)))
    assert np.allclose(win, full[x0:x1, y0:y1, :])


def test_spread_window_too_small_raises():
    box = np.array([10.0, 10.0, 10.0])
    pos = np.array([[5.0, 5.0, 5.0]])
    q = np.ones(1)
    with pytest.raises(ValueError):
        spread_charges(pos, q, (16, 16, 16), box, 4, window=((7, 9), (0, 16)))


def test_pme_energy_matches_direct_ewald(small_system):
    pos, q, box = small_system
    beta = 0.6
    e_direct, _ = direct_ewald_reciprocal(pos, q, box, beta, mmax=10)
    e_pme, _ = pme_reciprocal(pos, q, box, (32, 32, 32), beta, order=6)
    assert e_pme == pytest.approx(e_direct, rel=1e-5)


def test_pme_forces_match_direct_ewald(small_system):
    pos, q, box = small_system
    beta = 0.6
    _, f_direct = direct_ewald_reciprocal(pos, q, box, beta, mmax=10)
    _, f_pme = pme_reciprocal(pos, q, box, (32, 32, 32), beta, order=6)
    scale = np.max(np.abs(f_direct))
    assert np.max(np.abs(f_pme - f_direct)) < 1e-4 * max(scale, 1e-12) * 100


def test_pme_forces_are_energy_gradient(small_system):
    pos, q, box = small_system
    beta, K, order = 0.6, (24, 24, 24), 4
    _, forces = pme_reciprocal(pos, q, box, K, beta, order)
    h = 1e-5
    for (i, d) in [(0, 0), (5, 1), (11, 2)]:
        pp, pm = pos.copy(), pos.copy()
        pp[i, d] += h
        pm[i, d] -= h
        ep, _ = pme_reciprocal(pp, q, box, K, beta, order)
        em, _ = pme_reciprocal(pm, q, box, K, beta, order)
        num = -(ep - em) / (2 * h)
        assert forces[i, d] == pytest.approx(num, rel=1e-4, abs=1e-9)


def test_pme_converges_with_grid(small_system):
    pos, q, box = small_system
    beta = 0.6
    e_direct, _ = direct_ewald_reciprocal(pos, q, box, beta, mmax=10)
    errs = []
    for K in (16, 24, 32):
        e, _ = pme_reciprocal(pos, q, box, (K, K, K), beta, order=4)
        errs.append(abs(e - e_direct))
    assert errs[2] < errs[0]


def test_greens_function_zero_mode_and_symmetry():
    box = np.array([8.0, 8.0, 8.0])
    C = greens_function((16, 16, 16), box, beta=0.5)
    assert C[0, 0, 0] == 0.0
    assert np.all(C >= 0)
    # Grid-frequency symmetry C(m) = C(-m) (real potential grid).
    assert C[1, 0, 0] == pytest.approx(C[-1, 0, 0])
    assert C[2, 3, 1] == pytest.approx(C[-2, -3, -1])


def test_real_space_forces_are_gradient(small_system):
    pos, q, box = small_system
    beta, cutoff = 0.6, 4.5
    _, f = ewald_real_space(pos, q, box, beta, cutoff)
    h = 1e-6
    i, d = 2, 1
    pp, pm = pos.copy(), pos.copy()
    pp[i, d] += h
    pm[i, d] -= h
    ep, _ = ewald_real_space(pp, q, box, beta, cutoff)
    em, _ = ewald_real_space(pm, q, box, beta, cutoff)
    assert f[i, d] == pytest.approx(-(ep - em) / (2 * h), rel=1e-5)


def _ref_ewald_real_space(positions, charges, box, beta, cutoff):
    """``ewald_real_space`` as it was with scipy's erfc, evaluated twice."""
    delta = positions[:, None, :] - positions[None, :, :]
    delta -= np.round(delta / box) * box
    r2 = np.sum(delta**2, axis=-1)
    np.fill_diagonal(r2, np.inf)
    mask = r2 < cutoff**2
    r = np.sqrt(np.where(mask, r2, 1.0))
    qq = charges[:, None] * charges[None, :]
    energy = 0.5 * float(np.sum(np.where(mask, qq * scipy_erfc(beta * r) / r, 0.0)))
    dedr = np.where(
        mask,
        -qq
        * (
            scipy_erfc(beta * r) / r2
            + 2 * beta / math.sqrt(math.pi) * np.exp(-(beta**2) * r2) / r
        ),
        0.0,
    )
    fmag = -dedr / r
    forces = np.sum(np.where(mask[..., None], fmag[..., None] * delta, 0.0), axis=1)
    return energy, forces


@pytest.mark.parametrize(
    "beta, cutoff",
    # This file's parameters, and a beta that puts beta*r past 8 (erfc's
    # general path).
    [(0.6, 4.5), (0.55, 4.4), (0.65, 4.4), (3.0, 5.0)],
)
def test_real_space_is_the_bytes_of_the_scipy_erfc_version(small_system, beta, cutoff):
    pos, q, box = small_system
    energy, forces = ewald_real_space(pos, q, box, beta, cutoff)
    ref_energy, ref_forces = _ref_ewald_real_space(pos, q, box, beta, cutoff)
    assert repr(energy) == repr(ref_energy)
    assert forces.tobytes() == ref_forces.tobytes()


def test_real_space_forces_conserve_momentum(small_system):
    pos, q, box = small_system
    _, f = ewald_real_space(pos, q, box, 0.6, 4.5)
    assert np.allclose(f.sum(axis=0), 0.0, atol=1e-12)


def test_self_energy_sign_and_value():
    q = np.array([1.0, -1.0, 0.5])
    e = ewald_self_energy(q, beta=0.5)
    assert e < 0
    assert e == pytest.approx(-0.5 / np.sqrt(np.pi) * 2.25)


def test_total_ewald_beta_independence(small_system):
    """Real + reciprocal + self must be (nearly) independent of beta —
    the classic Ewald consistency check."""
    pos, q, box = small_system
    totals = []
    for beta in (0.55, 0.65):
        e_r, _ = ewald_real_space(pos, q, box, beta, cutoff=4.4)
        e_k, _ = direct_ewald_reciprocal(pos, q, box, beta, mmax=12)
        e_s = ewald_self_energy(q, beta)
        totals.append(e_r + e_k + e_s)
    assert totals[0] == pytest.approx(totals[1], abs=5e-3)
